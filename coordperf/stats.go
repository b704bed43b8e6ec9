package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sample of durations with the summaries the report uses.
type dist []time.Duration

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the q-quantile of d by linear interpolation between
// closest ranks; 0 for an empty sample.
func (d dist) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func (d dist) p50() time.Duration { return d.quantile(0.5) }

// tail is the highest percentile of the ladder 50, 90, 99, 99.9, 99.99
// that still has at least ten samples beyond it, with that percentile.
func (d dist) tail() (time.Duration, float64) {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(d))*(1-p/100) >= 10 {
			best = p
		}
	}
	return d.quantile(best / 100), best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed time interval in nanoseconds since the run's epoch.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var total, end int64 = 0, lo
	for _, iv := range clip {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		total += iv.hi - end
		end = iv.hi
	}
	return total
}
