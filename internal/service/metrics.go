package service

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/queue"
	"coordattack/internal/store"
)

// Metrics holds the daemon's counters and the job-latency histogram,
// rendered in Prometheus text exposition format at /metrics. Everything
// is stdlib: atomics for counters, a fixed-bucket histogram under a
// mutex.
type Metrics struct {
	// JobsSubmitted counts every valid job submission — cache hits and
	// ones refused with 429 or 503 included — and every cell of an
	// admitted sweep. An invalid spec does not count, and neither does a
	// journal replay, which counts in QueueReplayed alone.
	JobsSubmitted atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobsRejected  atomic.Int64 // queue-full 429s
	JobsCoalesced atomic.Int64 // submissions attached to an identical in-flight job
	JobsEvicted   atomic.Int64 // settled jobs evicted past the retention limit

	// WatchdogKills counts jobs the stuck-job watchdog declared wedged
	// (past deadline, no progress movement) and force-failed, freeing
	// their worker slots.
	WatchdogKills atomic.Int64

	// QueueReplayed counts accepted-but-unsettled jobs re-admitted from
	// the pending-queue journal on restart — the crash-durability win.
	QueueReplayed atomic.Int64

	// PeerHits counts local misses answered with a body fetched from a
	// cluster peer instead of an engine run — the cluster-wide
	// memoization win (includes stolen-job results retrieved by their
	// victims).
	PeerHits atomic.Int64
	// PeerServed counts results this node served to peers over
	// GET /v1/peer/results.
	PeerServed atomic.Int64
	// JobsStolen counts pending jobs this node adopted from saturated
	// peers, a job it donated and was handed back excluded; JobsDonated
	// counts pending jobs it granted to idle ones.
	JobsStolen  atomic.Int64
	JobsDonated atomic.Int64
	// JobsReclaimed counts donated jobs taken back and re-enqueued
	// locally: their thief stopped answering, or a grant handed them
	// back.
	JobsReclaimed atomic.Int64
	// ReplicaRepairs counts bodies the anti-entropy repair loop pushed
	// to replicas found missing them — the under-replication it healed.
	ReplicaRepairs atomic.Int64
	// ReadRepairs counts bodies pushed back to replica-set members that
	// missed them, triggered by a fetch falling through the set — the
	// fast-path heal, as opposed to the repair loop's background walk.
	ReadRepairs atomic.Int64

	// EngineRuns counts actual engine executions: submissions minus
	// cache hits, coalesced attaches, rejections, and queued cancels,
	// plus the replayed and adopted jobs that ran. Without those,
	// JobsSubmitted − EngineRuns is the work the memoization layer saved.
	EngineRuns atomic.Int64
	// EnginePanics counts engine executions that died by panic and were
	// recovered into a single failed job (the daemon kept serving).
	EnginePanics atomic.Int64

	SweepsSubmitted atomic.Int64 // valid sweep requests, 429 and 503 refusals included
	SweepsRejected  atomic.Int64 // sweeps rejected with queue-full backpressure
	SweepsEvicted   atomic.Int64 // settled sweeps evicted past the retention limit
	SweepCells      atomic.Int64 // grid cells expanded across all sweeps

	// WatchCoalesced counts snapshots skipped on /watch streams because
	// the client could not keep up at 10 Hz: each skip means the next
	// write carried a strictly newer state instead of a stale backlog.
	WatchCoalesced atomic.Int64

	TrialsExecuted atomic.Int64 // mc trials completed, across all jobs

	mu      sync.Mutex
	buckets []float64 // upper bounds, seconds, ascending
	counts  []int64   // cumulative-on-render, raw per-bucket here
	sum     float64
	count   int64
	// classSum/classCount split the duration observations by scheduling
	// class, feeding the per-class Retry-After estimate: a saturating
	// sweep's long cells must not inflate interactive clients' backoff.
	classSum   map[queue.Class]float64
	classCount map[queue.Class]int64
}

// defaultBuckets spans microsecond cache hits to multi-minute sweeps.
var defaultBuckets = []float64{
	0.000_1, 0.001, 0.01, 0.1, 0.5, 1, 5, 30, 60, 300,
}

// NewMetrics returns a Metrics with the default latency buckets.
func NewMetrics() *Metrics {
	b := make([]float64, len(defaultBuckets))
	copy(b, defaultBuckets)
	sort.Float64s(b)
	return &Metrics{
		buckets:    b,
		counts:     make([]int64, len(b)),
		classSum:   make(map[queue.Class]float64),
		classCount: make(map[queue.Class]int64),
	}
}

// replicaCounts reads the replica-push series off the cluster's own
// request counters, so each push is counted once: pushes are replicate
// requests that came back ok, failures every other replicate outcome by
// peer. A standalone daemon's empty snapshot gives zeros.
func replicaCounts(snap cluster.Snapshot) (pushes int64, failures map[string]int64) {
	failures = make(map[string]int64)
	for _, r := range snap.Requests {
		switch {
		case r.Op == "replicate" && r.Outcome == "ok":
			pushes += r.Count
		case r.Op == "replicate":
			failures[r.Peer] += r.Count
		}
	}
	return pushes, failures
}

// ObserveJobSeconds records one job's wall-clock duration under its
// scheduling class.
func (m *Metrics) ObserveJobSeconds(s float64, class queue.Class) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, ub := range m.buckets {
		if s <= ub {
			m.counts[i]++
			break
		}
	}
	m.sum += s
	m.count++
	m.classSum[class] += s
	m.classCount[class]++
}

// MeanJobSecondsClass reports the observed mean job duration for one
// scheduling class, falling back to the overall mean before any job of
// that class has completed (and 0 before any job at all has). It feeds
// the per-class Retry-After estimate on 429s.
func (m *Metrics) MeanJobSecondsClass(class queue.Class) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.classCount[class]; n > 0 {
		return m.classSum[class] / float64(n)
	}
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Gauges carries point-in-time values the server computes at render
// time (queue depth, running jobs, cache and store state).
type Gauges struct {
	JobsQueued int
	// QueueInteractive/QueueSweep split JobsQueued by scheduling class;
	// QueueOldestAgeSec is the head-of-line wait of the oldest pending
	// job.
	QueueInteractive  int
	QueueSweep        int
	QueueOldestAgeSec float64
	// RunningInteractive/RunningSweep split JobsRunning by scheduling
	// class: each class has its own worker pool.
	JobsRunning        int
	RunningInteractive int
	RunningSweep       int
	CacheSize          int
	CacheHits          int64
	CacheMisses        int64
	// StoreEnabled marks a daemon with a durable tier configured; Store
	// is its counter/gauge snapshot (zero when disabled, so the metric
	// surface stays stable either way).
	StoreEnabled bool
	Store        store.Stats
	// JournalEnabled marks a daemon with a pending-queue journal;
	// Journal is its snapshot.
	JournalEnabled bool
	Journal        queue.JournalStats
	// QueueFlows is the registered fairness flows of both schedulers.
	// Bounded by queue depth (empty flows are reaped), so growth here
	// means the reap invariant broke.
	QueueFlows int
	// ClusterEnabled marks a daemon joined to a peer set; Cluster is its
	// ring/breaker/request-counter snapshot.
	ClusterEnabled bool
	Cluster        cluster.Snapshot
	// HintsEnabled marks a daemon with a hinted-handoff log (every
	// clustered daemon has one; it is durable only under -queue-dir);
	// Hints is its snapshot.
	HintsEnabled bool
	Hints        hints.Stats
}

// WritePrometheus renders every metric in Prometheus text format.
func (m *Metrics) WritePrometheus(w io.Writer, g Gauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	pushes, pushFailures := replicaCounts(g.Cluster)
	counter("coordd_jobs_submitted_total", "Valid job submissions and admitted sweep cells, cache hits and 429/503 refusals included.", m.JobsSubmitted.Load())
	counter("coordd_jobs_completed_total", "Jobs that finished successfully.", m.JobsCompleted.Load())
	counter("coordd_jobs_failed_total", "Jobs that ended in an error.", m.JobsFailed.Load())
	counter("coordd_jobs_cancelled_total", "Jobs cancelled or deadline-expired.", m.JobsCancelled.Load())
	counter("coordd_jobs_rejected_total", "Jobs rejected with queue-full backpressure.", m.JobsRejected.Load())
	counter("coordd_jobs_coalesced_total", "Submissions attached to an identical in-flight job.", m.JobsCoalesced.Load())
	counter("coordd_jobs_evicted_total", "Settled jobs evicted past the retention limit.", m.JobsEvicted.Load())
	counter("coordd_watchdog_kills_total", "Stuck jobs killed by the watchdog.", m.WatchdogKills.Load())
	counter("coordd_engine_runs_total", "Engine executions actually performed.", m.EngineRuns.Load())
	counter("coordd_engine_panics_total", "Engine panics recovered into single-job failures.", m.EnginePanics.Load())
	counter("coordd_sweeps_submitted_total", "Valid parameter sweep submissions, 429/503 refusals included.", m.SweepsSubmitted.Load())
	counter("coordd_sweeps_rejected_total", "Sweeps rejected with queue-full backpressure.", m.SweepsRejected.Load())
	counter("coordd_sweeps_evicted_total", "Settled sweeps evicted past the retention limit.", m.SweepsEvicted.Load())
	counter("coordd_sweep_cells_total", "Grid cells expanded across all sweeps.", m.SweepCells.Load())
	counter("coordd_cache_hits_total", "Result-cache hits.", g.CacheHits)
	counter("coordd_cache_misses_total", "Result-cache misses.", g.CacheMisses)
	counter("coordd_watch_coalesced_total", "Watch-stream snapshots skipped for slow clients.", m.WatchCoalesced.Load())
	counter("coordd_trials_executed_total", "Monte-Carlo trials completed across all jobs.", m.TrialsExecuted.Load())
	counter("coordd_store_hits_total", "Durable-store hits.", g.Store.Hits)
	counter("coordd_store_misses_total", "Durable-store misses.", g.Store.Misses)
	counter("coordd_store_writes_total", "Bodies written through to the durable store.", g.Store.Writes)
	counter("coordd_store_evictions_total", "Durable-store entries evicted by the size-budget GC.", g.Store.Evictions)
	counter("coordd_store_quarantined_total", "Corrupt durable-store entries quarantined on read.", g.Store.Quarantined)
	counter("coordd_store_recoveries_total", "Degraded-store recoveries back to read-write.", g.Store.Recoveries)
	counter("coordd_queue_replayed_total", "Pending jobs re-admitted from the queue journal on restart.", m.QueueReplayed.Load())
	counter("coordd_peer_hits_total", "Local misses answered by a cluster peer instead of an engine run.", m.PeerHits.Load())
	counter("coordd_peer_served_total", "Results served to cluster peers.", m.PeerServed.Load())
	counter("coordd_jobs_stolen_total", "Pending jobs adopted from saturated peers.", m.JobsStolen.Load())
	counter("coordd_jobs_donated_total", "Pending jobs granted to idle peers.", m.JobsDonated.Load())
	counter("coordd_jobs_reclaimed_total", "Donated jobs taken back to run here: their thief stopped answering, or a grant handed them back.", m.JobsReclaimed.Load())
	counter("coordd_replica_pushes_total", "Result bodies successfully pushed to replica peers.", pushes)
	counter("coordd_replica_repairs_total", "Under-replicated bodies healed by the anti-entropy repair loop.", m.ReplicaRepairs.Load())
	counter("coordd_read_repairs_total", "Bodies pushed back to replicas that missed them after a fall-through fetch.", m.ReadRepairs.Load())
	counter("coordd_queue_journal_accepts_total", "Accept records appended to the queue journal.", g.Journal.Accepts)
	counter("coordd_queue_journal_settles_total", "Settle tombstones appended to the queue journal.", g.Journal.Settles)
	counter("coordd_queue_journal_truncated_total", "Undecodable journal records skipped on replay.", g.Journal.Truncated)
	counter("coordd_queue_journal_compactions_total", "Queue journal compactions (open-time and live).", g.Journal.Compactions)
	gauge("coordd_jobs_queued", "Jobs waiting in both classes' schedulers.", g.JobsQueued)
	fmt.Fprintf(w, "# HELP coordd_queue_depth Pending jobs by scheduling class.\n# TYPE coordd_queue_depth gauge\n")
	fmt.Fprintf(w, "coordd_queue_depth{class=\"interactive\"} %d\n", g.QueueInteractive)
	fmt.Fprintf(w, "coordd_queue_depth{class=\"sweep\"} %d\n", g.QueueSweep)
	fmt.Fprintf(w, "# HELP coordd_queue_oldest_age_seconds Wait of the oldest pending job.\n# TYPE coordd_queue_oldest_age_seconds gauge\ncoordd_queue_oldest_age_seconds %g\n", g.QueueOldestAgeSec)
	journalDegraded := 0
	if g.Journal.Degraded {
		journalDegraded = 1
	}
	gauge("coordd_queue_journal_degraded", "1 when a write error demoted the queue journal to memory-only.", journalDegraded)
	fmt.Fprintf(w, "# HELP coordd_jobs_running Jobs currently executing, by scheduling class (one worker pool each).\n# TYPE coordd_jobs_running gauge\n")
	fmt.Fprintf(w, "coordd_jobs_running{class=\"interactive\"} %d\n", g.RunningInteractive)
	fmt.Fprintf(w, "coordd_jobs_running{class=\"sweep\"} %d\n", g.RunningSweep)
	gauge("coordd_cache_entries", "Entries in the result cache.", g.CacheSize)
	gauge("coordd_store_entries", "Entries in the durable store.", g.Store.Entries)
	fmt.Fprintf(w, "# HELP coordd_store_bytes On-disk bytes in the durable store.\n# TYPE coordd_store_bytes gauge\ncoordd_store_bytes %d\n", g.Store.Bytes)
	degraded := 0
	if g.Store.Degraded {
		degraded = 1
	}
	gauge("coordd_store_degraded", "1 when a write error demoted the store to read-only.", degraded)
	gauge("coordd_queue_flows", "Registered fairness flows in the schedulers' round-robin rings.", g.QueueFlows)
	if g.ClusterEnabled {
		fmt.Fprintf(w, "# HELP coordd_peer_requests_total Peer-protocol requests by peer, operation, and outcome.\n# TYPE coordd_peer_requests_total counter\n")
		for _, r := range g.Cluster.Requests {
			fmt.Fprintf(w, "coordd_peer_requests_total{peer=%q,op=%q,outcome=%q} %d\n", r.Peer, r.Op, r.Outcome, r.Count)
		}
		fmt.Fprintf(w, "# HELP coordd_peer_breaker_open 1 when the peer's circuit breaker is open.\n# TYPE coordd_peer_breaker_open gauge\n")
		for _, p := range g.Cluster.Peers {
			open := 0
			if p.Breaker == cluster.StateOpen {
				open = 1
			}
			fmt.Fprintf(w, "coordd_peer_breaker_open{peer=%q} %d\n", p.Addr, open)
		}
		fmt.Fprintf(w, "# HELP coordd_peer_health Failure-detector peer state: 0 unknown, 1 alive, 2 suspect, 3 dead.\n# TYPE coordd_peer_health gauge\n")
		for _, p := range g.Cluster.Peers {
			var h int
			switch p.Health {
			case cluster.HealthAlive:
				h = 1
			case cluster.HealthSuspect:
				h = 2
			case cluster.HealthDead:
				h = 3
			}
			fmt.Fprintf(w, "coordd_peer_health{peer=%q} %d\n", p.Addr, h)
		}
		fmt.Fprintf(w, "# HELP coordd_replica_push_failures_total Replica pushes that failed, by target peer (hint queued; repair is the backstop).\n# TYPE coordd_replica_push_failures_total counter\n")
		for _, p := range g.Cluster.Peers {
			if n := pushFailures[p.Addr]; n > 0 {
				fmt.Fprintf(w, "coordd_replica_push_failures_total{peer=%q} %d\n", p.Addr, n)
			}
		}
	}
	if g.HintsEnabled {
		counter("coordd_hints_queued_total", "Hinted handoffs queued after failed replica pushes.", g.Hints.Adds)
		counter("coordd_hints_delivered_total", "Hinted handoffs delivered to recovered peers.", g.Hints.Delivered)
		counter("coordd_hints_dropped_total", "Hints shed oldest-first under the hint-log byte cap.", g.Hints.Dropped)
		counter("coordd_hints_replayed_total", "Pending hints recovered from the hint log on restart.", int64(g.Hints.Replayed))
		counter("coordd_hints_truncated_total", "Undecodable hint-log records skipped on replay.", g.Hints.Truncated)
		gauge("coordd_hints_pending", "Hints currently queued for unreachable peers.", g.Hints.Pending)
		hintsDegraded := 0
		if g.Hints.Degraded {
			hintsDegraded = 1
		}
		gauge("coordd_hints_degraded", "1 when a write error demoted the hint log to memory-only.", hintsDegraded)
	}
	writeSchedLatency(w)

	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP coordd_job_duration_seconds Job wall-clock duration.\n")
	fmt.Fprintf(w, "# TYPE coordd_job_duration_seconds histogram\n")
	cum := int64(0)
	for i, ub := range m.buckets {
		cum += m.counts[i]
		fmt.Fprintf(w, "coordd_job_duration_seconds_bucket{le=%q} %d\n", formatBound(ub), cum)
	}
	fmt.Fprintf(w, "coordd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", m.count)
	fmt.Fprintf(w, "coordd_job_duration_seconds_sum %g\n", m.sum)
	fmt.Fprintf(w, "coordd_job_duration_seconds_count %d\n", m.count)
}

// schedBounds are the bucket bounds of coordd_sched_latency_seconds, in
// seconds.
var schedBounds = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
}

// writeSchedLatency renders the runtime's /sched/latencies:seconds
// histogram, how long goroutines sat runnable before they ran since the
// process started, as coordd_sched_latency_seconds. The runtime's finer
// buckets are folded in at scrape time: each counts under the first
// bound at or above its upper edge. The runtime keeps no sum, so _sum
// is estimated from the bucket lower bounds.
func writeSchedLatency(w io.Writer) {
	sample := []rtmetrics.Sample{{Name: "/sched/latencies:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return
	}
	h := sample[0].Value.Float64Histogram()
	counts := make([]uint64, len(schedBounds))
	var total uint64
	var sum float64
	for i, n := range h.Counts {
		total += n
		if lo := h.Buckets[i]; lo > 0 {
			sum += lo * float64(n)
		}
		if b := sort.SearchFloat64s(schedBounds, h.Buckets[i+1]); b < len(schedBounds) {
			counts[b] += n
		}
	}
	fmt.Fprintf(w, "# HELP coordd_sched_latency_seconds Time goroutines sat runnable before they ran, process-wide (runtime/metrics /sched/latencies:seconds); _sum is estimated from bucket lower bounds.\n")
	fmt.Fprintf(w, "# TYPE coordd_sched_latency_seconds histogram\n")
	cum := uint64(0)
	for b, ub := range schedBounds {
		cum += counts[b]
		fmt.Fprintf(w, "coordd_sched_latency_seconds_bucket{le=%q} %d\n", formatBound(ub), cum)
	}
	fmt.Fprintf(w, "coordd_sched_latency_seconds_bucket{le=\"+Inf\"} %d\n", total)
	fmt.Fprintf(w, "coordd_sched_latency_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "coordd_sched_latency_seconds_count %d\n", total)
}

func formatBound(ub float64) string { return fmt.Sprintf("%g", ub) }
