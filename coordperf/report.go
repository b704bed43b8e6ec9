package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// finish replays settled keys against node 0 for the output oracle (and,
// traced, the HTTP/submit split), stops the fleet, and checks
// exactly-once settlement.
func (b *bench) finish(replayKeys []string) {
	n := 64
	if b.trace {
		n = 512
	}
	b.httpRTT, b.submitD = b.replay(replayKeys, n)
	b.fleet.stop()
	runs := b.fleet.engineRuns()
	b.mu.Lock()
	fresh := len(b.fresh)
	b.mu.Unlock()
	if runs != int64(fresh) {
		b.fail("exactly once: %d engine runs for %d distinct computed keys", runs, fresh)
	}
	b.engineRuns = runs
}

func (b *bench) delta() snapshot {
	s, e := b.start, b.end
	d := snapshot{
		engineRuns: e.engineRuns - s.engineRuns,
		trials:     e.trials - s.trials,
		cacheHits:  e.cacheHits - s.cacheHits,
		storeHits:  e.storeHits - s.storeHits,
		evicted:    e.evicted - s.evicted,
		coalesced:  e.coalesced - s.coalesced,
		submitted:  e.submitted - s.submitted,
		stolen:     e.stolen - s.stolen,
		counts:     map[string]int64{},
		totals:     map[string]time.Duration{},
	}
	for k, v := range e.counts {
		d.counts[k] = v - s.counts[k]
	}
	for k, v := range e.totals {
		d.totals[k] = v - s.totals[k]
	}
	return d
}

// windowRecs are the requests due inside the timed window.
func (b *bench) windowRecs() []*rec {
	var out []*rec
	for _, r := range b.recs.all() {
		if r.due >= b.winLo && r.due < b.winHi {
			out = append(out, r)
		}
	}
	return out
}

// settleTimes lists when each job of the window was observed settled.
func (b *bench) settleTimes() []int64 {
	var ts []int64
	for _, r := range b.windowRecs() {
		if r.path == pathSweep {
			for _, t := range r.cells {
				if t > 0 {
					ts = append(ts, t)
				}
			}
		} else if r.err == "" {
			ts = append(ts, r.end)
		}
	}
	return ts
}

// settledJobs counts the jobs observed settled inside the window.
func (b *bench) settledJobs() int {
	n := 0
	for _, t := range b.settleTimes() {
		if t <= b.winHi {
			n++
		}
	}
	return n
}

// throughput is the median over the window's one-second slices of the
// jobs observed settled in each, so a burst of interference on the host
// moves one slice, not the run's figure.
func (b *bench) throughput() float64 { return median(b.slices()) }

// slices counts the jobs observed settled in each second of the window.
func (b *bench) slices() []float64 {
	slices := make([]float64, int(b.seconds/time.Second))
	for _, t := range b.settleTimes() {
		if i := (t - b.winLo) / int64(time.Second); t >= b.winLo && i < int64(len(slices)) {
			slices[i]++
		}
	}
	return slices
}

// blockQuantile is the median, over consecutive blocks of the window's
// settled requests in due order, of each block's q-quantile latency,
// with the number of blocks. A block is just long enough to leave ten
// samples beyond the quantile, so a burst of interference on the host,
// or one of the daemon's periodic passes (watchdog, repair, peer
// probes), moves the few blocks it falls in rather than the run's
// figure. With fewer than three blocks it is the window's q-quantile.
func (b *bench) blockQuantile(q float64) (time.Duration, int) {
	recs := b.windowRecs()
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	var all dist
	for _, r := range recs {
		if r.err == "" {
			all = append(all, r.latency())
		}
	}
	size := int(math.Round(10 / (1 - q)))
	if len(all) < 3*size {
		return all.quantile(q), 1
	}
	var qs []float64
	for lo := 0; lo+size <= len(all); lo += size {
		qs = append(qs, float64(all[lo:lo+size].quantile(q)))
	}
	return time.Duration(median(qs)), len(qs)
}

// latency summaries over the window's settled requests, optionally
// restricted to some paths and to traced or untraced requests.
func (b *bench) latencies(traced *bool, paths ...string) dist {
	var d dist
	for _, r := range b.windowRecs() {
		if r.err != "" || (len(paths) > 0 && !contains(paths, r.path)) || (traced != nil && r.traced != *traced) {
			continue
		}
		d = append(d, r.latency())
	}
	return d
}

// counts returns attempted and failed jobs of the window; correctness
// failures outside any request count as failed.
func (b *bench) counts() (attempted, failed int) {
	for _, r := range b.windowRecs() {
		attempted += r.jobs
		if r.err != "" {
			failed += r.jobs
		}
	}
	b.mu.Lock()
	failed += len(b.fails)
	b.mu.Unlock()
	return attempted, failed
}

// endToEnd computes the user-visible metrics of an untraced run.
func (b *bench) endToEnd() []metric {
	secs := b.seconds.Seconds()
	attempted, failed := b.counts()
	all := b.latencies(nil)
	tail, blocks := b.blockQuantile(b.tailPct / 100)
	out := []metric{
		{Name: "setup_s", Value: median(seconds(b.setups)), Unit: "s", Note: fmt.Sprintf("median of %d boots", len(b.setups))},
		{Name: "throughput_rps", Value: b.throughput(), Unit: "req/s", Note: fmt.Sprintf("median over one-second slices of jobs settled (sweep cells count one each); %d in the window, per slice %v", b.settledJobs(), b.slices())},
		{Name: "trials_per_s", Value: float64(b.delta().trials) / secs, Unit: "trials/s", Note: "coordd_trials_executed_total over the window"},
		{Name: "error_rate", Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", Note: fmt.Sprintf("%d of %d", failed, attempted)},
		{Name: "latency_p50_ms", Value: ms(all.p50()), Unit: "ms", Note: fmt.Sprintf("%d requests", len(all))},
		{Name: "latency_tail_ms", Value: ms(tail), Unit: "ms",
			Note: fmt.Sprintf("median over %d blocks of consecutive requests of each block's p%g, ten beyond it per block; p%g of all %d requests %.3f ms",
				blocks, b.tailPct, b.tailPct, len(all), ms(all.quantile(b.tailPct/100)))},
	}
	for _, p := range []string{pathMemHit, pathDiskHit, pathPeerHit, pathMiss} {
		d := b.latencies(nil, p)
		if len(d) == 0 {
			continue
		}
		tail, pct := d.tail()
		out = append(out,
			metric{Name: p + "_p50_ms", Value: ms(d.p50()), Unit: "ms", Note: fmt.Sprintf("%d requests", len(d))},
			metric{Name: p + "_tail_ms", Value: ms(tail), Unit: "ms", Note: fmt.Sprintf("p%g of %d requests", pct, len(d))},
		)
	}
	out = append(out, metric{Name: "heap_live_mb", Value: b.heapLive / (1 << 20), Unit: "MiB",
		Note: "median over the window of the live Go heap sampled every 5 ms; daemon and load generator share the process"})
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// blocking names the spans on a miss's blocking path.
var blocking = map[string]bool{
	"mc.run": true, "experiments.run": true,
	"store.read": true, "store.write": true, "store.fsync": true, "store.syncdir": true,
	"queue.journal_append": true, "cluster.fetch": true, "cluster.fetch_miss": true,
}

// workerStart names the spans that mark a worker picking a job up.
var workerStart = map[string]bool{"mc.run": true, "experiments.run": true, "cluster.fetch": true, "cluster.fetch_miss": true}

type namedIv struct {
	name string
	iv   interval
}

// gaps explains each traced miss of the window by its spans: the
// generator's lateness, the submit round trip, the queue wait up to the
// worker's first span, every blocking-path span joined by key, and the
// final status poll. What none of them covers is the request's gap; the
// most common neighbours of the largest uncovered interval name where
// the gap sits.
func (b *bench) gaps() (gap, wait dist, where string) {
	spans := b.tr.byKey()
	whereCount := map[string]int{}
	for _, r := range b.windowRecs() {
		if !r.traced || r.err != "" || r.path != pathMiss {
			continue
		}
		ivs := []namedIv{
			{"loadgen.late", interval{r.due, r.sent}},
			{"http.submit", interval{r.sent, r.posted}},
			{"http.poll", interval{r.pollLo, r.pollHi}},
		}
		first := int64(-1)
		for _, s := range spans[r.key] {
			if !blocking[s.name] || s.iv.hi <= r.due || s.iv.lo >= r.end {
				continue
			}
			ivs = append(ivs, namedIv{s.name, s.iv})
			if workerStart[s.name] && s.iv.lo >= r.sent && (first < 0 || s.iv.lo < first) {
				first = s.iv.lo
			}
		}
		if first > r.posted {
			ivs = append(ivs, namedIv{"queue.wait", interval{r.posted, first}})
			wait = append(wait, time.Duration(first-r.posted))
		}
		plain := make([]interval, len(ivs))
		for i, n := range ivs {
			plain[i] = n.iv
		}
		gap = append(gap, time.Duration((r.end-r.due)-covered(plain, r.due, r.end)))
		if w := largestHole(ivs, r.due, r.end); w != "" {
			whereCount[w]++
		}
	}
	best := 0
	for w, c := range whereCount {
		if c > best || (c == best && w < where) {
			where, best = w, c
		}
	}
	if where != "" {
		where = fmt.Sprintf("%s (largest uncovered interval in %d of %d misses)", where, best, len(gap))
	}
	return gap, wait, where
}

// largestHole names the largest interval of [lo, hi] that ivs leave
// uncovered by the spans around it.
func largestHole(ivs []namedIv, lo, hi int64) string {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].iv.lo < ivs[j].iv.lo })
	end, before := lo, "request start"
	var bestLen int64
	var best string
	consider := func(gapLo, gapHi int64, after string) {
		if gapHi-gapLo > bestLen {
			bestLen, best = gapHi-gapLo, before+" → "+after
		}
	}
	for _, n := range ivs {
		if n.iv.hi <= end {
			continue
		}
		if n.iv.lo > end {
			consider(end, min(n.iv.lo, hi), n.name)
		}
		end, before = n.iv.hi, n.name
	}
	if end < hi {
		consider(end, hi, "request end")
	}
	return best
}

// layers computes the hook-based per-layer metrics of a traced run.
func (b *bench) layers() []metric {
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{Name: name, Value: v, Unit: unit, Note: note})
	}
	d := b.delta()
	secs := b.seconds.Seconds()
	jobs := float64(b.settledJobs())
	dur := b.tr.durations

	add("service.http_us.p50", us(b.httpRTT.p50()-b.submitD.p50()), "us",
		fmt.Sprintf("%d replayed hits: HTTP round trip minus direct Server.Submit", len(b.httpRTT)))
	tail, pct := b.submitD.tail()
	add("service.submit_us.p50", us(b.submitD.p50()), "us", "direct Server.Submit of replayed hits")
	add("service.submit_us.tail", us(tail), "us", fmt.Sprintf("p%g of %d", pct, len(b.submitD)))
	add("service.jobs_evicted", float64(b.end.evicted), "count", "JobsEvicted at the end of the window")
	add("service.coalesced_ratio", ratio(float64(d.coalesced), float64(d.submitted)), "ratio", "JobsCoalesced / JobsSubmitted in the window")
	var polls, polled int
	for _, r := range b.windowRecs() {
		if r.err == "" && r.jobs == 1 && r.path != pathMemHit && r.path != pathDiskHit {
			polls += r.polls
			polled++
		}
	}
	add("service.polls_per_job", ratio(float64(polls), float64(polled)), "count", "status GETs per settled miss or peer hit")

	add("store.read_us.p50", us(dur("store.read").p50()), "us", fmt.Sprintf("%d traced FS.ReadFile calls", len(dur("store.read"))))
	add("store.write_ms.p50", ms(dur("store.write").p50()), "ms", "CreateTemp through Rename")
	add("store.fsync_ms.p50", ms(dur("store.fsync").p50()), "ms", "file Sync")
	add("store.fsyncs_per_job", ratio(float64(d.counts["store.fsync"]+d.counts["store.syncdir"]), jobs), "count", "file and directory fsyncs per settled job")

	gap, wait, where := b.gaps()
	tail, pct = wait.tail()
	add("queue.wait_ms.p50", ms(wait.p50()), "ms", "submit response to the worker's first span")
	add("queue.wait_ms.tail", ms(tail), "ms", fmt.Sprintf("p%g of %d", pct, len(wait)))
	add("queue.journal_sync_ms.p50", ms(dur("queue.journal_sync").p50()), "ms", "journal File.Sync")
	add("queue.journal_appends_per_job", ratio(float64(d.counts["queue.journal_append"]), jobs), "count", "")

	engine := d.totals["mc.run"] + d.totals["experiments.run"]
	add("mc.run_ms.p50", ms(dur("mc.run").p50()), "ms", "WrapEngine, engine=mc")
	add("mc.busy_share", engine.Seconds()/(secs*2*float64(len(b.fleet))), "ratio", "engine time / (window × worker slots)")
	b.mu.Lock()
	fresh := len(b.fresh)
	b.mu.Unlock()
	add("mc.runs_per_key", ratio(float64(b.engineRuns), float64(fresh)), "ratio", "engine runs / distinct computed keys")
	add("experiments.run_ms.p50", ms(dur("experiments.run").p50()), "ms", "WrapEngine, engine=experiment")

	fetch := dur("cluster.fetch")
	tail, pct = fetch.tail()
	add("cluster.fetch_ms.p50", ms(fetch.p50()), "ms", "GET /v1/peer/results → 200")
	add("cluster.fetch_ms.tail", ms(tail), "ms", fmt.Sprintf("p%g of %d", pct, len(fetch)))
	add("cluster.fetch_miss_ms.p50", ms(dur("cluster.fetch_miss").p50()), "ms", "GET /v1/peer/results → 404")
	add("cluster.push_ms.p50", ms(dur("cluster.push").p50()), "ms", "PUT /v1/peer/results")
	var peerReqs int64
	for name, c := range d.counts {
		if strings.HasPrefix(name, "cluster.") && name != "cluster.ping" {
			peerReqs += c
		}
	}
	add("cluster.requests_per_job", ratio(float64(peerReqs), jobs), "count", "peer requests other than pings")
	add("cluster.ping_per_s", float64(d.counts["cluster.ping"])/secs, "1/s", "")

	traced := true
	miss := b.latencies(&traced, pathMiss)
	if len(gap) > 0 {
		add("gap.miss_ms", ms(gap.p50()), "ms", where)
		add("gap.miss_share", ratio(float64(gap.p50()), float64(miss.p50())), "ratio", fmt.Sprintf("of traced miss_p50_ms %.3f", ms(miss.p50())))
	}
	if mem := b.latencies(nil, pathMemHit); len(mem) > 0 && len(b.httpRTT) > 0 {
		add("gap.hit_ms", ms(mem.p50()-b.httpRTT.p50()), "ms", "window mem_hit_p50 minus the unloaded replay's HTTP round trip (HTTP + spec + cache + submit)")
	}
	untraced := false
	lt, lu := b.latencies(&traced), b.latencies(&untraced)
	add("trace.overhead_pct", 100*(ratio(float64(lt.p50()), float64(lu.p50()))-1), "%",
		fmt.Sprintf("traced p50 %.3f ms (%d) vs untraced %.3f ms (%d) in the traced run", ms(lt.p50()), len(lt), ms(lu.p50()), len(lu)))
	return out
}
