package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/mc"
	"coordattack/internal/queue"
	"coordattack/internal/stats"
	"coordattack/internal/store"
)

// Config tunes the scheduler.
type Config struct {
	// Workers is the number of concurrent jobs per scheduling class;
	// 0 means 2. Interactive jobs and sweep cells each have a pool of
	// Workers workers draining the class's own scheduler, so neither
	// class waits for the other's running jobs.
	Workers int
	// QueueDepth bounds the pending jobs of each scheduling class: an
	// interactive submission past it, or a sweep submitted while the
	// scheduler holds that many jobs in all, is rejected with
	// ErrQueueFull (HTTP 429). 0 means 64. An admitted sweep's cells, a
	// journal replay and an adopted steal may exceed it — accepted work
	// is never dropped.
	QueueDepth int
	// Deprecated: InteractiveWeight is ignored. Each scheduling class
	// has its own worker pool, so no pop order weighs one class against
	// the other.
	InteractiveWeight int
	// Journal, when non-nil, is the crash-safe pending-queue WAL
	// (internal/queue): every accepted job is appended (fsynced) before
	// its 202, tombstoned when it settles, and re-admitted by New on
	// restart. A nil Journal keeps the pending queue memory-only.
	Journal *queue.Journal
	// CacheSize bounds the result cache entry count; 0 means 1024.
	CacheSize int
	// JobTimeout is the per-job deadline; 0 means 5 minutes. A spec's
	// timeout_sec can lower it per job, never raise it. It counts from a
	// job's submission, or for a sweep cell from when a worker takes it.
	JobTimeout time.Duration
	// Store, when non-nil, is the durable second result tier under the
	// in-memory LRU: completed bodies are written through to it, and a
	// memory miss consults it before running the engine — which is what
	// makes a restarted daemon serve prior results as cache hits. A nil
	// Store keeps the daemon memory-only.
	Store *store.Store
	// SweepRetention bounds how many settled sweeps stay queryable;
	// older settled sweeps are evicted (404) so Server.sweeps cannot
	// grow without bound in a long-lived daemon. Unsettled sweeps are
	// never evicted. 0 means 256.
	SweepRetention int
	// JobRetention bounds how many settled jobs stay queryable in
	// Server.jobs, mirroring SweepRetention: the oldest settled jobs
	// past the limit are evicted (404). Unsettled jobs are never
	// evicted. 0 means 4096.
	JobRetention int
	// WatchdogInterval is how often the stuck-job watchdog scans for
	// running jobs past their deadline with no progress movement; 0
	// means 5 s, negative disables the watchdog.
	WatchdogInterval time.Duration
	// WatchdogGrace is how far past its deadline — with no progress
	// callback movement for at least as long — a running job must be
	// before the watchdog declares it stuck and kills it. 0 means 30 s.
	WatchdogGrace time.Duration
	// WrapEngine, when non-nil, wraps every engine execution: it
	// receives the engine name and the underlying run function and
	// returns the function actually run (still under panic isolation).
	// Chaos harnesses inject stalls and panics here.
	WrapEngine func(engine string, next RunFunc) RunFunc
	// Cluster, when non-nil, joins this daemon to a static peer set
	// (internal/cluster): local misses consult the key's ring owner
	// before running the engine, computed bodies replicate to their
	// owners, idle workers steal pending jobs from saturated peers, and
	// the peer-protocol endpoints under /v1/peer/ are served. A nil
	// Cluster keeps the daemon standalone.
	Cluster *cluster.Cluster
	// StealInterval is how often an idle node polls peers for stealable
	// work; 0 means 1 s, negative disables stealing (the node still
	// serves and fetches peer results).
	StealInterval time.Duration
	// StealPollInterval is how often a victim polls the thief for a
	// donated job's result; 0 means 200 ms.
	StealPollInterval time.Duration
	// StealPollFailures is how many consecutive unanswered (or
	// answered-but-unknowing) polls the victim tolerates before
	// presuming the thief dead and reclaiming the job; 0 means 4.
	StealPollFailures int
	// RepairInterval is how often the anti-entropy repair loop walks a
	// batch of local store keys and re-replicates any whose replica
	// peers are missing them; 0 means 5 s, negative disables repair.
	// Only meaningful with both Cluster and Store configured. One pass
	// may take the interval clamped to [1s, 10s] (repairBudget).
	RepairInterval time.Duration
	// Hints, when non-nil, is the durable hinted-handoff log
	// (internal/hints): replica pushes that fail queue a (peer, key)
	// hint there and the failure detector drains it the moment the peer
	// answers a probe again. When nil and a Cluster is configured, the
	// server keeps a memory-only hint log — same healing behavior, no
	// crash durability.
	Hints *hints.Log
	// ProbeInterval is how often the peer failure detector pings every
	// peer (GET /v1/peer/ping); 0 means 1 s, negative disables the
	// detector (hints then deliver only via explicit replay or repair).
	ProbeInterval time.Duration
	// ProbeMisses is how many consecutive failed pings mark a peer dead;
	// 0 means 3.
	ProbeMisses int

	// trialWorkers is the Monte-Carlo parallelism budget of one job:
	// GOMAXPROCS divided evenly across one pool's Workers, never below
	// 1, so one busy class still uses every processor. When both classes
	// are busy, up to 2×GOMAXPROCS trial goroutines share the processors,
	// one trial at a time: the trial loop yields every 50 µs
	// (internal/mc).
	trialWorkers int
	// repairBatch bounds how many local keys one repair pass probes; 0
	// means 128. The cursor persists across passes, so the whole key
	// space is walked eventually regardless of batch size.
	repairBatch int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	c.trialWorkers = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.SweepRetention == 0 {
		c.SweepRetention = 256
	}
	if c.JobRetention == 0 {
		c.JobRetention = 4096
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = 5 * time.Second
	}
	if c.WatchdogGrace == 0 {
		c.WatchdogGrace = 30 * time.Second
	}
	if c.StealInterval == 0 {
		c.StealInterval = time.Second
	}
	if c.StealPollInterval == 0 {
		c.StealPollInterval = 200 * time.Millisecond
	}
	if c.StealPollFailures == 0 {
		c.StealPollFailures = 4
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 5 * time.Second
	}
	if c.repairBatch == 0 {
		c.repairBatch = 128
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeMisses == 0 {
		c.ProbeMisses = 3
	}
	return c
}

// State is a job's lifecycle stage.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrQueueFull = fmt.Errorf("service: queue full")
	ErrDraining  = fmt.Errorf("service: server draining")
	ErrNotFound  = fmt.Errorf("service: no such job")
)

// entry is what a job and a sweep share in the server's registries:
// the id clients address it by, the sequence number behind the id —
// drawn from the one counter both kinds share — and the channel closed
// when it settles. Retention and the listings order entries by seq, not
// by id, whose string order breaks once the counter passes 999999.
type entry struct {
	id   string
	seq  int64
	done chan struct{}
}

func (e *entry) base() *entry { return e }

// registered is a job or a sweep: anything the registries hold.
type registered interface{ base() *entry }

// Job is one scheduled computation. Progress counters are atomics so
// polling never contends with the worker; everything else is guarded by
// mu.
type Job struct {
	entry
	key  string
	spec JobSpec // canonical
	// class and flow are the scheduling envelope this job was admitted
	// under; class picks the job's pool and feeds the per-class duration
	// observations behind Retry-After. Written when the job is created,
	// read afterwards.
	class queue.Class
	flow  string

	// ctx carries the job's deadline, timeout after its submission. A
	// sweep cell's ctx carries none: its timeout counts from when a
	// worker takes it (runJob), since its sweep is admitted whole and the
	// cell may wait behind far more than QueueDepth jobs. deadline
	// caches the deadline for the scheduler and the watchdog; a cell's
	// stays zero until it runs.
	ctx      context.Context
	cancel   context.CancelFunc
	timeout  time.Duration
	deadline time.Time

	completed atomic.Int64
	failed    atomic.Int64
	// lastMove is the wall-clock nanos of the last *advance* of the
	// progress counters (or of the run start). The watchdog reads it to
	// distinguish a slow-but-alive engine from a wedged one.
	lastMove atomic.Int64

	mu        sync.Mutex
	state     State
	cached    bool
	coalesced bool
	// stolenBy is the peer currently computing this job after a steal
	// handoff; the job stays "queued" here while its follower goroutine
	// (awaitStolen) watches the thief, until the result lands or a
	// reclaim clears it.
	stolenBy string
	body     json.RawMessage
	errMsg   string

	// item is this job's scheduler entry while pending, and journaled
	// marks the job that owns its key's journal accept record (coalesced
	// followers share the key but never the record). Both are guarded by
	// Server.mu, not this mu.
	item      *queue.Item
	journaled bool
}

// Progress is the polling/streaming view of a job's advancement. CIWidth
// is the full width of the 95% Hoeffding deviation interval at the
// current completed-trial count: the caller-visible "how converged am I"
// number (1 before any trial completes).
type Progress struct {
	Trials    int     `json:"trials"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	CIWidth   float64 `json:"ci_width"`
}

// Status is the wire form of a job, served by every jobs endpoint.
type Status struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	// Coalesced marks a submission that attached to an identical
	// in-flight job instead of running the engine itself; it settles with
	// a copy of that job's outcome.
	Coalesced bool `json:"coalesced,omitempty"`
	// StolenBy names the peer currently computing this job after a
	// work-stealing handoff; empty once it settles or is reclaimed.
	StolenBy string          `json:"stolen_by,omitempty"`
	Spec     JobSpec         `json:"spec"`
	Progress Progress        `json:"progress"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (j *Job) status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The counters are read under mu: every settlement stores its final
	// counts before it changes state, so a settled status carries them.
	completed := int(j.completed.Load())
	width := 1.0
	if completed > 0 {
		if r, err := stats.HoeffdingRadius(completed, 0.05); err == nil {
			width = 2 * r
		}
	}
	return &Status{
		ID:        j.id,
		Key:       j.key,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		StolenBy:  j.stolenBy,
		Spec:      j.spec,
		Progress: Progress{
			Trials:    j.spec.Trials,
			Completed: completed,
			Failed:    int(j.failed.Load()),
			CIWidth:   width,
		},
		Result: j.body,
		Error:  j.errMsg,
	}
}

// pool is one scheduling class's share of the server: its own bounded
// fair-share scheduler (internal/queue), drained by Config.Workers
// workers, and the count of its jobs running now.
type pool struct {
	sched   *queue.Sched
	running atomic.Int64
}

// Server is the job orchestrator: one worker pool per scheduling class,
// a content-addressed result cache in front, an optional crash-safe
// pending-queue journal underneath, and a job registry behind the HTTP
// handlers (http.go).
type Server struct {
	cfg     Config
	cache   *Cache
	store   *store.Store     // nil = memory-only
	journal *queue.Journal   // nil = pending queue is memory-only
	cluster *cluster.Cluster // nil = standalone daemon
	hints   *hints.Log       // nil = standalone daemon (clustered servers always have one)
	metrics *Metrics
	engines map[string]RunFunc

	// pools are the interactive and the sweep pool (Server.pool), fixed
	// at New.
	pools [2]pool

	mu   sync.Mutex
	jobs map[string]*Job
	// inflight maps a canonical key to the one job currently queued or
	// running for it: the coalescing registry. Entries are removed when
	// the job settles (after a successful body is cached), so a key
	// absent here with a cache miss really does need a fresh engine run.
	inflight map[string]*Job
	sweeps   map[string]*Sweep
	draining bool
	nextID   int64

	// admitMu serializes sweep admission (SubmitSweep).
	admitMu sync.Mutex

	wg sync.WaitGroup

	// stop and loops run the background loops started through every —
	// the stuck-job watchdog, work stealing, anti-entropy repair and the
	// peer failure detector: Drain closes stop once and waits on loops
	// once.
	stop  chan struct{}
	loops sync.WaitGroup

	// The repair loop's cursor and pass counters (replicate.go).
	repairMu   sync.Mutex
	repairCur  string // last store key probed; next pass resumes after it
	repairRuns int64
	lastRepair time.Time

	// hintMu guards hintActive: the per-peer "a delivery goroutine is
	// already draining this peer" latch, so overlapping alive signals do
	// not double-deliver concurrently (delivery itself is idempotent).
	hintMu     sync.Mutex
	hintActive map[string]bool
	// rrSem is the read-repair in-flight budget: a full channel means
	// new read-repairs are skipped, not queued — the anti-entropy loop
	// remains the backstop.
	rrSem chan struct{}
	// largeSlot is the one slot a submission with an unsized or large
	// body is decoded and admitted in (oneLarge).
	largeSlot chan struct{}
}

// New starts a Server with both worker pools already running. When a
// journal is configured, the pending jobs it recovered are re-admitted
// (ahead of new submissions) before the pools start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheSize),
		store:      cfg.Store,
		journal:    cfg.Journal,
		cluster:    cfg.Cluster,
		hints:      cfg.Hints,
		metrics:    NewMetrics(),
		engines:    engineRegistry(),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		sweeps:     make(map[string]*Sweep),
		hintActive: make(map[string]bool),
		rrSem:      make(chan struct{}, readRepairBudget),
		largeSlot:  make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	for i := range s.pools {
		s.pools[i].sched = queue.NewSched(queue.SchedOptions{MaxDepth: cfg.QueueDepth})
	}
	if s.cluster != nil && s.hints == nil {
		// Every clustered server gets a hint log; without a configured
		// durable one it is memory-only (Open with an empty dir cannot
		// fail).
		s.hints, _ = hints.Open("", hints.Options{})
	}
	s.replayJournal()
	for i := range s.pools {
		for w := 0; w < cfg.Workers; w++ {
			s.wg.Add(1)
			go s.worker(&s.pools[i])
		}
	}
	if cfg.WatchdogInterval > 0 {
		s.every(cfg.WatchdogInterval, func() { s.scanStuck(time.Now()) })
	}
	if s.cluster != nil && cfg.StealInterval > 0 {
		s.every(cfg.StealInterval, s.stealRound)
	}
	if s.cluster != nil && s.store != nil && cfg.RepairInterval > 0 {
		budget := repairBudget(cfg.RepairInterval)
		s.every(cfg.RepairInterval, func() {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			s.repairPass(ctx)
		})
	}
	if s.cluster != nil && cfg.ProbeInterval > 0 {
		s.every(cfg.ProbeInterval, func() { s.cluster.PingAll(cfg.ProbeMisses, s.onPeerAlive) })
	}
	return s
}

// pool is the pool of class c: sweep cells have their own, and every
// other job is interactive (newJob).
func (s *Server) pool(c queue.Class) *pool {
	if c == queue.ClassSweep {
		return &s.pools[1]
	}
	return &s.pools[0]
}

// queued totals the pending jobs of both pools.
func (s *Server) queued() int {
	return s.pools[0].sched.Depth() + s.pools[1].sched.Depth()
}

// every runs fn once per interval, on one goroutine, until Drain closes
// s.stop. Each round runs to completion before the next tick is taken,
// so rounds of one loop never overlap, and Drain's wait on s.loops
// returns only once every loop's last round has finished.
func (s *Server) every(interval time.Duration, fn func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// Metrics exposes the server's counters (for tests and /metrics).
func (s *Server) Metrics() *Metrics { return s.metrics }

// CacheStats exposes the cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// Submit canonicalizes spec once, counts it as submitted, and admits it
// as an interactive job through submit. The returned Status is the
// submission-time view: state "done" with the result inline on a cache
// hit, "queued" (possibly coalesced) otherwise. Backpressure and drain
// are reported as ErrQueueFull and ErrDraining.
func (s *Server) Submit(spec JobSpec) (*Status, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	s.metrics.JobsSubmitted.Add(1)
	j := s.newJob(canon, canon.Key(), queue.ClassInteractive, "interactive")
	if err := s.submit(j, time.Time{}); err != nil {
		return nil, err
	}
	return j.status(), nil
}

// submit is the one admission decision, for a job newJob built from a
// canonical spec and its key: a client job, a sweep cell or a replayed
// journal record. A local result serves j as a cache hit; a queued or
// running twin of its key takes j as a coalesced follower; otherwise j
// is enqueued in its envelope — individual submissions share the
// interactive pool's one flow, sweep cells ride their sweep's own flow
// in the sweep pool, whose scheduler round-robins sweeps against each
// other. accepted is enqueue's: zero for a client job, bounded by
// MaxDepth, or the admission time of a cell's sweep or a replayed
// record.
func (s *Server) submit(j *Job, accepted time.Time) error {
	if body, ok := s.local(j.key); ok {
		// A prior (possibly pre-restart) run settled this key: serve it
		// as a cache hit; no engine run, so coordd_engine_runs_total
		// stays put.
		s.serveCached(j, body)
		return nil
	}

	s.mu.Lock()
	if leader, ok := s.inflight[j.key]; ok {
		if s.draining {
			// A follower would be new work that Drain waits out: refused
			// like a fresh job, which enqueue refuses below.
			s.mu.Unlock()
			j.cancel()
			return ErrDraining
		}
		// An identical job is already queued or running: attach to it
		// instead of computing twice. The wg.Add is safe here because a
		// registered leader's worker cannot have exited yet — it drops
		// the registry entry (under this lock) before returning. A
		// follower owns no journal record: its leader's accept covers
		// the key.
		j.coalesced, j.journaled = true, false
		s.jobs[j.id] = j
		s.metrics.JobsCoalesced.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go s.follow(j, leader)
		return nil
	}
	if body, ok := s.cache.Get(j.key); ok {
		// The leader settled between the unlocked cache check and here.
		// Its body was cached before the registry entry was dropped, so
		// this second check under the lock cannot miss, and it answers
		// even while draining.
		s.mu.Unlock()
		s.serveCached(j, body)
		return nil
	}
	if thief := j.stolenBy; thief != "" {
		// A replayed steal intent whose body is not local: follow the
		// thief, which may hold the job, instead of running it twice.
		s.jobs[j.id] = j
		s.inflight[j.key] = j
		s.wg.Add(1)
		s.mu.Unlock()
		go s.awaitStolen(j, thief)
		return nil
	}
	err := s.enqueue(j, accepted)
	s.mu.Unlock()
	return err
}

// enqueue is the one way a job enters a scheduler. Called under s.mu,
// it builds j's scheduler entry from its envelope, pushes it to its
// class's pool, registers j in jobs and inflight, and journals the
// accept (fsynced, so a 202 is only sent once the accept is durable,
// and no settle for this key can be logged before it) unless j already
// owns its key's record. A zero accepted time is a fresh submission,
// refused with ErrQueueFull when its class holds MaxDepth jobs;
// accepted work — an admitted sweep's cells, a journal replay, an
// adopted steal, a reclaim — passes its admission time and bypasses
// MaxDepth, because accepted work is never dropped. A draining server refuses both. Journal errors are advisory:
// the journal demotes itself to memory-only and admission proceeds.
func (s *Server) enqueue(j *Job, accepted time.Time) error {
	it := &queue.Item{
		Key:      j.key,
		Flow:     j.flow,
		Priority: j.spec.Priority,
		Deadline: j.deadline,
		Enqueued: accepted,
		Payload:  j,
	}
	sched := s.pool(j.class).sched
	var err error
	switch {
	case s.draining:
		err = ErrDraining
	case accepted.IsZero():
		if sched.Push(it) != nil {
			s.metrics.JobsRejected.Add(1)
			err = ErrQueueFull
		}
	default:
		sched.PushReplay(it)
	}
	if err != nil {
		j.cancel()
		return err
	}
	s.jobs[j.id] = j
	s.inflight[j.key] = j
	j.item = it
	if s.journal != nil && !j.journaled {
		j.journaled = true
		_ = s.journal.Accept(j.record())
	}
	return nil
}

// record is the one envelope of a pending job: its accept record, which
// the journal keeps and a steal grant hands a thief, admission time
// included. Called under s.mu while j.item is set.
func (j *Job) record() queue.Record {
	spec, _ := json.Marshal(j.spec) // a canonical spec always encodes
	return queue.Record{
		Op:       queue.OpAccept,
		Key:      j.key,
		Flow:     j.flow,
		Class:    string(j.class),
		Priority: j.spec.Priority,
		Spec:     spec,
		At:       j.item.Enqueued.UnixNano(),
	}
}

// settle is the one way a job settles: it moves j from the state from
// to the terminal state to, exactly once. A job no longer in from is
// left alone and settle reports false: someone else settled it, or —
// for a queued cancel that lost the race to a worker — the worker will,
// keeping the engine's partial result. The winner counts j in exactly
// one of completed, failed and cancelled, and in each counter of also
// (the peer hit or watchdog kill behind it), and a job leaving running
// frees its slot in its pool's running gauge, all before the new state
// shows. A settled job names no thief: stolen_by clears with the
// settle, and a follower still watching one exits on done.
// Settling from running is also how a job's worker is freed: the worker
// waits for the engine or for done, whichever comes first, so a
// watchdog kill or a forced drain leaves a wedged engine behind. settle
// then withdraws j from the scheduler, tombstones the journal record j
// owns while the key is still in the coalescing registry (so a fresh
// accept of the key cannot be logged before this settle and then erased
// by it), drops the key, runs the retention pass, and releases j's
// context. A successful body is cached before settle, so once the key
// leaves the registry a re-submission hits the cache.
func (s *Server) settle(j *Job, from, to State, body json.RawMessage, errMsg string, also ...*atomic.Int64) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state, j.body, j.errMsg, j.stolenBy = to, body, errMsg, ""
	switch to {
	case StateDone:
		s.metrics.JobsCompleted.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	default:
		s.metrics.JobsCancelled.Add(1)
	}
	for _, c := range also {
		c.Add(1)
	}
	if from == StateRunning {
		s.pool(j.class).running.Add(-1)
	}
	close(j.done)
	j.mu.Unlock()

	s.mu.Lock()
	it, owned := j.item, j.journaled
	j.item, j.journaled = nil, false
	s.mu.Unlock()
	if it != nil {
		s.pool(j.class).sched.Remove(it)
	}
	if owned {
		_ = s.journal.Settle(j.key)
	}
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	retain(s.jobs, s.cfg.JobRetention, &s.metrics.JobsEvicted)
	s.mu.Unlock()
	j.cancel()
	return true
}

// replayJournal re-admits the pending jobs the journal recovered, in
// admission order, each through submit with its original flow, class
// and admission time: a record whose body the store already holds is
// served from it (the settle beat the crash, its tombstone did not),
// two records whose specs canonicalize to one key coalesce, and
// everything else is enqueued again, bypassing MaxDepth. A record whose
// spec still canonicalizes to its key keeps owning it; one that
// re-canonicalizes differently (keyVersion bump) is admitted under the
// new key, which enqueue re-accepts, before its old key is tombstoned,
// so a later crash replays the right one. Records that no longer decode
// or canonicalize (a spec regression across versions) are tombstoned
// and dropped.
func (s *Server) replayJournal() {
	if s.journal == nil {
		return
	}
	for _, rec := range s.journal.Pending() {
		j, accepted, err := s.jobOf(rec)
		if err != nil {
			_ = s.journal.Settle(rec.Key)
			continue
		}
		s.metrics.QueueReplayed.Add(1)
		j.journaled = j.key == rec.Key
		if j.journaled && rec.Op == queue.OpIntent && rec.Thief != "" && s.cluster != nil {
			// The crash interrupted a steal handoff before the thief's
			// result landed here. The thief may well hold the job (it
			// journaled it, and its own replay re-runs it), or it may
			// never have durably taken it. submit re-attaches the
			// follower, which reclaims for a local re-run only once the
			// thief provably has no record of the key: blindly
			// re-enqueueing would run the key twice.
			j.stolenBy = rec.Thief
		}
		// Replay runs before Drain can begin, and accepted work bypasses
		// MaxDepth, so submit refuses nothing here.
		_ = s.submit(j, accepted)
		if j.key != rec.Key {
			_ = s.journal.Settle(rec.Key)
		}
	}
}

// jobOf is the one reader of a pending job's record, for journal replay
// and adopted steals: a job under the canonical key of the record's
// spec, in the record's flow and class, and the admission time it
// carries — now for a record without one, as an older victim grants.
func (s *Server) jobOf(rec queue.Record) (*Job, time.Time, error) {
	var spec JobSpec
	err := json.Unmarshal(rec.Spec, &spec)
	if err == nil {
		spec, err = spec.Canonicalize()
	}
	if err != nil {
		return nil, time.Time{}, err
	}
	accepted := time.Now()
	if rec.At > 0 {
		accepted = time.Unix(0, rec.At)
	}
	return s.newJob(spec, spec.Key(), queue.Class(rec.Class), rec.Flow), accepted, nil
}

// serveCached settles a freshly created job inline with a memoized body
// and tombstones the journal record the job owns, which only a replayed
// record can. It is a hit, not a settlement: no completed/failed/
// cancelled count. A replayed steal intent served here names no thief.
func (s *Server) serveCached(j *Job, body json.RawMessage) {
	j.mu.Lock()
	j.cached, j.state, j.body, j.stolenBy = true, StateDone, body, ""
	j.completed.Store(int64(j.spec.Trials))
	j.mu.Unlock()
	close(j.done)
	j.cancel()
	s.mu.Lock()
	s.jobs[j.id] = j
	owned := j.journaled
	j.journaled = false
	retain(s.jobs, s.cfg.JobRetention, &s.metrics.JobsEvicted)
	s.mu.Unlock()
	if owned {
		_ = s.journal.Settle(j.key)
	}
}

// local is the one local result lookup: the memory LRU, then the
// durable store (a nil store always misses), promoting a disk hit into
// the LRU.
func (s *Server) local(key string) (json.RawMessage, bool) {
	if body, ok := s.cache.Get(key); ok {
		return body, true
	}
	if s.store == nil {
		return nil, false
	}
	body, ok := s.store.Get(key)
	if ok {
		s.cache.Put(key, body)
	}
	return body, ok
}

// keep is the one local result write: the body goes into the memory LRU
// and through to the durable store. Store errors are advisory — the
// body is already in memory; the store demotes itself to read-only (and
// logs once), so the daemon degrades to memory-only instead of failing
// jobs.
func (s *Server) keep(key string, body json.RawMessage) {
	s.cache.Put(key, body)
	if s.store != nil {
		_ = s.store.Put(key, body)
	}
}

// follow settles a coalesced follower when its leader does, mirroring
// the leader's terminal state, body, and progress counters — a done
// leader hands every follower the identical result bytes, a failed or
// cancelled one propagates its error. The follower's own deadline and
// Cancel still apply: they detach it without touching the leader.
func (s *Server) follow(j, leader *Job) {
	defer s.wg.Done()
	select {
	case <-leader.done:
		leader.mu.Lock()
		state, body, errMsg := leader.state, leader.body, leader.errMsg
		leader.mu.Unlock()
		storeMax(&j.completed, leader.completed.Load())
		storeMax(&j.failed, leader.failed.Load())
		s.settle(j, StateQueued, state, body, errMsg)
	case <-j.ctx.Done():
		s.settle(j, StateQueued, StateCancelled, nil, j.ctx.Err().Error())
	case <-j.done: // cancelled directly through the API
	}
}

// newJob creates a queued job under the next sequence number, its
// timeout running unless it is a sweep cell. Any class but the sweep
// class means the interactive one, as does an empty flow (a journal or
// steal record without one).
func (s *Server) newJob(canon JobSpec, key string, class queue.Class, flow string) *Job {
	timeout := s.cfg.JobTimeout
	if t := time.Duration(canon.TimeoutSec) * time.Second; t > 0 && t < timeout {
		timeout = t
	}
	if class != queue.ClassSweep {
		class = queue.ClassInteractive
	}
	if flow == "" {
		flow = "interactive"
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if class == queue.ClassSweep {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	deadline, _ := ctx.Deadline()
	s.mu.Lock()
	e := s.newEntry("j")
	s.mu.Unlock()
	return &Job{
		entry: e, key: key, spec: canon,
		class: class, flow: flow,
		ctx: ctx, cancel: cancel, timeout: timeout, deadline: deadline,
		state: StateQueued,
	}
}

// newEntry draws the next id under prefix from the counter jobs and
// sweeps share. Called under s.mu.
func (s *Server) newEntry(prefix string) entry {
	s.nextID++
	return entry{id: fmt.Sprintf("%s%06d", prefix, s.nextID), seq: s.nextID, done: make(chan struct{})}
}

// retain evicts the oldest settled entries of m past limit, counting
// each in evicted, so a long-lived daemon's registries stay bounded.
// Unsettled entries never count against the limit and are never
// evicted. Evicted ids answer 404; a job's result stays memoized in the
// cache and store under its spec key. Each call scans m and sorts the
// settled entries (ROADMAP item 1). Called under s.mu.
func retain[T registered](m map[string]T, limit int, evicted *atomic.Int64) {
	if len(m) <= limit {
		return
	}
	settled := make([]*entry, 0, len(m))
	for _, v := range m {
		select {
		case <-v.base().done:
			settled = append(settled, v.base())
		default:
		}
	}
	if len(settled) <= limit {
		return
	}
	sort.Slice(settled, func(a, b int) bool { return settled[a].seq < settled[b].seq })
	for _, e := range settled[:len(settled)-limit] {
		delete(m, e.id)
		evicted.Add(1)
	}
}

// lookup finds id in m; an unknown or evicted id is ErrNotFound.
func lookup[T registered](s *Server, m map[string]T, id string) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := m[id]
	if !ok {
		return v, ErrNotFound
	}
	return v, nil
}

// listed renders every entry of m, oldest first: the entries are copied
// under s.mu and sorted by seq outside it.
func listed[T registered, S any](s *Server, m map[string]T, status func(T) S) []S {
	s.mu.Lock()
	all := make([]T, 0, len(m))
	for _, v := range m {
		all = append(all, v)
	}
	s.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].base().seq < all[b].base().seq })
	out := make([]S, len(all))
	for i, v := range all {
		out[i] = status(v)
	}
	return out
}

func (s *Server) job(id string) (*Job, error) { return lookup(s, s.jobs, id) }

// Get returns a job's current status.
func (s *Server) Get(id string) (*Status, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	return j.status(), nil
}

// Jobs lists every known job, oldest first.
func (s *Server) Jobs() []*Status { return listed(s, s.jobs, (*Job).status) }

// Cancel cancels a job. A queued job is settled immediately; a running
// one has its context cancelled and settles (possibly with a partial
// result) when its engine returns.
func (s *Server) Cancel(id string) (*Status, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	s.cancelJob(j)
	return j.status(), nil
}

// cancelJob is Cancel on a job already in hand. Settling from queued
// withdraws the job from the scheduler, frees its queue capacity, and
// tombstones its journal record, so a restart does not resurrect it.
func (s *Server) cancelJob(j *Job) {
	j.cancel()
	s.settle(j, StateQueued, StateCancelled, nil, context.Canceled.Error())
}

func (s *Server) worker(p *pool) {
	defer s.wg.Done()
	for {
		it, ok := p.sched.Next()
		if !ok {
			return
		}
		s.runJob(it.Payload.(*Job))
	}
}

// storeMax raises a to at least v without ever lowering it (progress
// snapshots can arrive out of store order across mc workers) and
// reports whether it raised it — i.e. whether this snapshot was real
// forward movement, which is what feeds the watchdog's liveness clock.
func storeMax(a *atomic.Int64, v int64) bool {
	for {
		cur := a.Load()
		if v <= cur {
			return false
		}
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
}

func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() { // cancelled while queued; that settle did the bookkeeping
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	// The run's clock: a sweep cell's timeout starts now, and any other
	// job keeps the earlier deadline its ctx took at submission.
	ctx, stop := context.WithTimeout(j.ctx, j.timeout)
	defer stop()
	// Cluster lookup sits between the local tiers and the engine: the
	// key's replicas may already hold the body another node computed.
	// Checked before the job is marked running — a peer hit settles it
	// as a cache hit with no engine run counted; any peer failure
	// degrades to local compute, so a dead replica costs one
	// breaker-limited timeout, never correctness. A hit that had to come
	// from a peer means some replicas (this node included, if it is in
	// the set) were missing the body: read-repair pushes it back to
	// them off the request path.
	if s.cluster != nil {
		if body, from, ok := s.cluster.FetchResult(ctx, j.key); ok {
			s.settlePeerResult(j, body, "")
			s.readRepair(j.key, body, from)
			return
		}
	}
	j.mu.Lock()
	if j.state.Terminal() { // cancelled during the peer lookup
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.deadline, _ = ctx.Deadline()
	s.pool(j.class).running.Add(1)
	j.mu.Unlock()
	j.lastMove.Store(time.Now().UnixNano())

	s.metrics.EngineRuns.Add(1)
	start := time.Now()
	run := s.engines[j.spec.Engine]
	if s.cfg.WrapEngine != nil {
		// The wrapper sits *inside* the panic isolation, so an injected
		// chaos panic is recovered like any engine panic.
		run = s.cfg.WrapEngine(j.spec.Engine, run)
	}
	progress := func(snap mc.Snapshot) {
		moved := storeMax(&j.completed, int64(snap.Completed))
		if storeMax(&j.failed, int64(snap.Failed)) {
			moved = true
		}
		if moved {
			j.lastMove.Store(time.Now().UnixNano())
		}
	}
	// The engine runs on its own goroutine and hands its result over
	// only while this worker still waits for it. The watchdog or a forced
	// drain may settle the job from running first — the engine ignored
	// its context — and then the worker moves on and leaves the engine
	// behind. A success that returns after that is still cached, being
	// valid deterministic work, but not timed, counted or replicated.
	type result struct {
		body json.RawMessage
		err  error
	}
	ran := make(chan result)
	go func() {
		body, err := runEngine(j.spec.Engine, run, ctx, j.spec, s.cfg.trialWorkers, progress)
		select {
		case ran <- result{body, err}:
		case <-j.done:
			if err == nil {
				s.keep(j.key, body)
			}
		}
	}()
	var r result
	select {
	case r = <-ran:
	case <-j.done:
		return
	}
	s.metrics.ObserveJobSeconds(time.Since(start).Seconds(), j.class)
	s.metrics.TrialsExecuted.Add(j.completed.Load())

	var pe *PanicError
	switch {
	case r.err == nil:
		// Cache before settling: the registry-outlives-body ordering
		// followers rely on.
		s.keep(j.key, r.body)
		s.replicateResult(j.key, r.body)
		s.settle(j, StateRunning, StateDone, r.body, "")
	case errors.As(r.err, &pe):
		// A recovered engine panic fails this one job; the worker — and
		// the daemon — keep serving. Checked before the context, so a
		// panic racing a deadline still reports as the failure it is.
		s.metrics.EnginePanics.Add(1)
		s.settle(j, StateRunning, StateFailed, nil, r.err.Error())
	case ctx.Err() != nil:
		// Cancelled or deadline-expired: keep the partial body so the
		// client still gets every completed trial.
		s.settle(j, StateRunning, StateCancelled, r.body, r.err.Error())
	default:
		s.settle(j, StateRunning, StateFailed, r.body, r.err.Error())
	}
}

// gauges snapshots the point-in-time values for /metrics and /healthz.
func (s *Server) gauges() Gauges {
	hits, misses := s.cache.Stats()
	now := time.Now()
	in, sw := &s.pools[0], &s.pools[1]
	g := Gauges{
		QueueInteractive:   in.sched.Depth(),
		QueueSweep:         sw.sched.Depth(),
		QueueOldestAgeSec:  max(in.sched.OldestAge(now), sw.sched.OldestAge(now)).Seconds(),
		QueueFlows:         in.sched.Flows() + sw.sched.Flows(),
		RunningInteractive: int(in.running.Load()),
		RunningSweep:       int(sw.running.Load()),
		CacheSize:          s.cache.Len(),
		CacheHits:          hits,
		CacheMisses:        misses,
	}
	g.JobsQueued = g.QueueInteractive + g.QueueSweep
	g.JobsRunning = g.RunningInteractive + g.RunningSweep
	if s.store != nil {
		g.Store = s.store.Stats()
		g.StoreEnabled = true
	}
	if s.journal != nil {
		g.Journal = s.journal.Stats()
		g.JournalEnabled = true
	}
	if s.cluster != nil {
		g.Cluster = s.cluster.Snapshot()
		g.ClusterEnabled = true
	}
	if s.hints != nil {
		g.Hints = s.hints.Stats()
		g.HintsEnabled = true
	}
	return g
}

// retryAfter estimates the seconds until queue space frees up for one
// scheduling class: that class's queued backlog divided across its own
// pool's Workers, scaled by the class's observed mean job duration (the
// overall mean before the class has finished anything, 1 s before
// anything at all has), clamped to [1, 300]. It is the Retry-After
// header on 429 responses; using per-class means keeps a saturating
// sweep's multi-minute cells from inflating interactive clients'
// backoff by two orders of magnitude.
func (s *Server) retryAfter(class queue.Class) (secs, depth, capacity int) {
	depth = s.queued()
	capacity = s.cfg.QueueDepth
	classDepth := s.pool(class).sched.Depth()
	mean := s.metrics.MeanJobSecondsClass(class)
	if mean <= 0 {
		mean = 1
	}
	est := math.Ceil(float64(classDepth+1) / float64(s.cfg.Workers) * mean)
	secs = int(est)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs, depth, capacity
}

// Drain stops accepting jobs, lets queued and running work finish, and
// returns when both pools are idle. If ctx expires first every in-flight
// job is cancelled (settling with partial results), and every
// WatchdogGrace after that any job still running — its engine ignores
// cancellation — is settled cancelled with an error naming the drain,
// which frees its worker and leaves the engine behind. Drain returns
// ctx's error once the workers have exited: one grace past ctx's
// deadline, unless a worker's next queued job wedges too.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for i := range s.pools {
			s.pools[i].sched.Close()
		}
		close(s.stop)
	}
	s.mu.Unlock()
	// Stop every background loop before waiting on the pools: a steal
	// round would adopt new work, and a detector round could fire
	// OnAlive and start a hint delivery (the deliveries already spawned
	// hold wg shares and drain normally).
	s.loops.Wait()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.cancel()
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	msg := fmt.Sprintf("service: drain deadline passed and the engine ignored cancellation for %s; abandoned", s.cfg.WatchdogGrace)
	tick := time.NewTicker(s.cfg.WatchdogGrace)
	defer tick.Stop()
	for {
		select {
		case <-idle:
			return ctx.Err()
		case <-tick.C:
			for _, j := range jobs {
				s.settle(j, StateRunning, StateCancelled, nil, msg)
			}
		}
	}
}
