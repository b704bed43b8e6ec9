package service

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestSchedLatencyHistogram checks the coordd_sched_latency_seconds
// family folded from the runtime's scheduler-latency histogram: it is
// present, its buckets ascend and are cumulative, and the +Inf bucket
// equals _count, which is above zero once goroutines have been
// scheduled.
func TestSchedLatencyHistogram(t *testing.T) {
	for i := 0; i < 64; i++ {
		done := make(chan struct{})
		go close(done)
		<-done
	}
	var buf bytes.Buffer
	NewMetrics().WritePrometheus(&buf, Gauges{})
	const family = "coordd_sched_latency_seconds"
	if !strings.Contains(buf.String(), "# TYPE "+family+" histogram\n") {
		t.Fatalf("/metrics has no %s histogram:\n%s", family, buf.String())
	}
	var les []string
	var cum []uint64
	var count uint64
	sum := -1.0
	for _, line := range strings.Split(buf.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, family) {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(name, family+"_bucket{le="):
			var n uint64
			n, err = strconv.ParseUint(value, 10, 64)
			les = append(les, strings.TrimSuffix(strings.TrimPrefix(name, family+`_bucket{le="`), `"}`))
			cum = append(cum, n)
		case name == family+"_count":
			count, err = strconv.ParseUint(value, 10, 64)
		case name == family+"_sum":
			sum, err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	if len(les) != len(schedBounds)+1 || les[0] != "1e-05" || les[len(les)-2] != "0.1" || les[len(les)-1] != "+Inf" {
		t.Fatalf("bucket bounds %v, want 1e-05 … 0.1, +Inf", les)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("bucket le=%s holds %d < le=%s's %d: not cumulative", les[i], cum[i], les[i-1], cum[i-1])
		}
	}
	if inf := cum[len(cum)-1]; inf != count || count == 0 {
		t.Errorf("+Inf bucket %d, _count %d: want equal and above 0", inf, count)
	}
	if sum < 0 {
		t.Errorf("_sum %v, want a nonnegative estimate", sum)
	}
}
