// Package mc is the Monte-Carlo harness: it estimates outcome
// probabilities Pr[TA|R], Pr[PA|R], Pr[NA|R] and per-process attack
// probabilities Pr[D_i|R] by repeated execution with independent tapes.
//
// Determinism discipline: trial t always uses the tapes derived from
// (seed, t), whatever the worker count, so results are bit-for-bit
// reproducible and parallelism is purely a speedup. When a RunSampler is
// set, trial t's run likewise depends only on (seed, t); when a Mutator
// is set, trial t's protocol likewise depends only on t.
//
// Failure handling: a trial can fail — the sampler errors, a machine
// panics (recovered by sim), or fault injection makes a machine
// misbehave fatally. Failed trials are counted against the MaxFailures
// budget instead of aborting the whole job; once the budget is exceeded
// (or the Ctx is cancelled, or its deadline passes) every worker stops
// promptly and Estimate returns the partial Result accumulated so far
// together with a joined error.
package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coordattack/internal/graph"
	"coordattack/internal/protocol"
	"coordattack/internal/rng"
	"coordattack/internal/run"
	"coordattack/internal/stats"
)

// RunSampler draws the run for one trial — the weak adversary of §8 is a
// RunSampler. The tape is derived from (seed, trial) and is independent
// of the protocol tapes of the same trial.
type RunSampler func(trial uint64, tape *rng.Tape) (*run.Run, error)

// Mutator derives the protocol executed in one trial from the base
// protocol — per-trial fault injection (internal/fault.Mutator) plugs in
// here. It must be deterministic in trial.
type Mutator func(trial uint64, p protocol.Protocol) (protocol.Protocol, error)

// Config describes one estimation job.
type Config struct {
	Protocol protocol.Protocol
	Graph    *graph.G
	// Run is the fixed run to condition on; ignored when Sampler is set.
	Run *run.Run
	// Sampler, when non-nil, draws a fresh run per trial.
	Sampler RunSampler
	// Mutator, when non-nil, transforms the protocol per trial.
	Mutator Mutator
	Trials  int
	Seed    uint64
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, cancels the job early: on cancellation (or
	// deadline) Estimate stops all workers promptly and returns the
	// partial Result with the context error joined in. Nil means
	// context.Background().
	Ctx context.Context
	// MaxFailures is the failure budget: up to this many failed trials
	// are recorded and skipped; one more cancels the job. 0 (the
	// default) fails fast on the first failed trial — but even then the
	// partial Result is returned beside the error.
	MaxFailures int
	// Progress, when non-nil, is called from worker goroutines roughly
	// every ProgressEvery finished trials (and once more when the last
	// worker exits). It observes the job — it can never influence it —
	// so determinism of the Result is unaffected. It must be safe for
	// concurrent use and cheap; a slow callback stalls a worker.
	Progress func(Snapshot)
	// ProgressEvery is the finished-trial interval between Progress
	// calls; 0 means every 1000 trials.
	ProgressEvery int
	// StopWhen, when non-nil, turns on adaptive early stopping: it is
	// evaluated on the cumulative partial Result at deterministic batch
	// boundaries (every CheckEvery dispatched trials), and returning true
	// halts dispatch of further trials. Because the batch contents depend
	// only on (Seed, trial) and the predicate sees only the
	// order-independent cumulative tally, the stopping point is exactly
	// reproducible at any worker count. The predicate must not retain the
	// Result it is handed.
	StopWhen func(r *Result) bool
	// TargetCIWidth, when > 0 and StopWhen is nil, installs the default
	// stopping rule: halt once the full width of the widest Wilson 95%
	// interval among TA/PA/NA is at most this value. Must be in [0, 1).
	TargetCIWidth float64
	// CheckEvery is the dispatched-trial batch size between StopWhen
	// evaluations; 0 means every 1000 trials. Smaller batches stop closer
	// to the target at the cost of more synchronization barriers.
	CheckEvery int

	// reference forces the reference execution path even when the
	// protocol has a zero-alloc engine. Only the differential suite sets
	// it, to compare the two paths.
	reference bool
}

// Snapshot is one progress observation of a running job: how many of
// the requested trials have finished, split into completions and
// failures. Snapshots are monotone in Completed+Failed but may arrive
// out of order across workers.
type Snapshot struct {
	Trials    int `json:"trials"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

func (c Config) validate() error {
	if c.Protocol == nil {
		return fmt.Errorf("mc: nil protocol")
	}
	if c.Graph == nil {
		return fmt.Errorf("mc: nil graph")
	}
	if c.Run == nil && c.Sampler == nil {
		return fmt.Errorf("mc: need a run or a sampler")
	}
	if c.Trials <= 0 {
		return fmt.Errorf("mc: trials must be positive, got %d", c.Trials)
	}
	if c.Workers < 0 {
		return fmt.Errorf("mc: workers must be nonnegative, got %d", c.Workers)
	}
	if c.MaxFailures < 0 {
		return fmt.Errorf("mc: max failures must be nonnegative, got %d", c.MaxFailures)
	}
	if c.ProgressEvery < 0 {
		return fmt.Errorf("mc: progress interval must be nonnegative, got %d", c.ProgressEvery)
	}
	if c.TargetCIWidth < 0 || c.TargetCIWidth >= 1 {
		return fmt.Errorf("mc: target ci width %v outside [0, 1)", c.TargetCIWidth)
	}
	if c.CheckEvery < 0 {
		return fmt.Errorf("mc: check interval must be nonnegative, got %d", c.CheckEvery)
	}
	return nil
}

// Result aggregates an estimation job's outcomes. When every trial
// succeeds, Completed == Trials and Failed == 0; a partial Result (from
// cancellation or budget exhaustion) reports exactly the trials that
// were attempted. All proportions are over Completed trials.
//
// The JSON field names are the wire form served by cmd/coordd (see
// internal/service) and must not change; json_test.go pins them.
type Result struct {
	// Trials is the requested trial count.
	Trials int `json:"trials"`
	// Completed is how many trials executed to an outcome.
	Completed int `json:"completed"`
	// Failed is how many trials failed (sampler error, machine error or
	// recovered panic).
	Failed int              `json:"failed"`
	TA     stats.Proportion `json:"ta"` // total attack — the liveness estimate
	PA     stats.Proportion `json:"pa"` // partial attack — the unsafety estimate
	NA     stats.Proportion `json:"na"`
	// AttackCounts[i] is how many trials process i attacked (index 1..m;
	// index 0 unused): the Pr[D_i|R] estimates.
	AttackCounts []int `json:"attack_counts"`
	// Stopped marks a result halted by adaptive early stopping
	// (Config.StopWhen / TargetCIWidth): the interval converged before
	// the full budget, so Completed+Failed < Trials by design, not by
	// cancellation.
	Stopped bool `json:"stopped,omitempty"`
}

// AttackProportion returns the Pr[D_i|R] estimate for process i.
func (r *Result) AttackProportion(i graph.ProcID) (stats.Proportion, error) {
	if int(i) < 1 || int(i) >= len(r.AttackCounts) {
		return stats.Proportion{}, fmt.Errorf("mc: process %d out of range", i)
	}
	return stats.NewProportion(r.AttackCounts[i], r.Completed)
}

// trialError is one failed trial, retained (up to a cap) for the joined
// error report.
type trialError struct {
	trial uint64
	err   error
}

// maxReportedErrors caps how many per-trial errors the joined error
// carries; the Failed count is always exact.
const maxReportedErrors = 8

type tally struct {
	ta, pa, na int
	completed  int
	failed     int
	attacks    []int
	errs       []trialError
}

func (t *tally) merge(o *tally) {
	t.ta += o.ta
	t.pa += o.pa
	t.na += o.na
	t.completed += o.completed
	t.failed += o.failed
	for i := range t.attacks {
		t.attacks[i] += o.attacks[i]
	}
	t.errs = append(t.errs, o.errs...)
}

func (t *tally) reset() {
	clear(t.attacks)
	t.ta, t.pa, t.na = 0, 0, 0
	t.completed, t.failed = 0, 0
	t.errs = t.errs[:0]
}

// z95 is the 95% normal quantile used by the default stopping rule.
const z95 = 1.959963984540054

// widestWilsonWidth is the full width of the widest Wilson 95% interval
// among TA/PA/NA — the default early-stopping criterion: all three
// outcome probabilities must have converged. With no completed trials
// every interval is [0,1], so the rule never fires vacuously.
func widestWilsonWidth(r *Result) float64 {
	w := 0.0
	for _, p := range []stats.Proportion{r.TA, r.PA, r.NA} {
		if iw := p.WilsonInterval(z95).Width(); iw > w {
			w = iw
		}
	}
	return w
}

// estimator is the shared state of one Estimate call: derived context,
// tape streams, the cross-batch atomic counters, and the cumulative
// tally. It exists so the adaptive early-stopping path can run the same
// deterministic trial loop over successive ranges.
type estimator struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	protoStream rng.Stream
	runStream   rng.Stream

	// fast marks jobs that run on zero-alloc engines (see fast.go).
	fast bool
	// ws holds one worker per trial goroutine. Workers outlive a
	// batch, so an adaptive job keeps its engines and scratch from one
	// CheckEvery batch to the next.
	ws []*worker

	// failures counts failed trials across workers; passing MaxFailures
	// trips the breaker and cancels the siblings.
	failures atomic.Int64
	// Progress plumbing: completions and finished trials are counted in
	// atomics shared across workers so a Snapshot can be emitted every
	// `every` finished trials without touching the per-worker tallies.
	completedCount atomic.Int64
	finishedCount  atomic.Int64
	every          int64

	total *tally
}

func (e *estimator) budgetBlown() bool {
	return e.failures.Load() > int64(e.cfg.MaxFailures)
}

func (e *estimator) report() {
	e.cfg.Progress(Snapshot{
		Trials:    e.cfg.Trials,
		Completed: int(e.completedCount.Load()),
		Failed:    int(e.failures.Load()),
	})
}

func (e *estimator) tick() {
	if e.cfg.Progress == nil {
		return
	}
	if n := e.finishedCount.Add(1); n%e.every == 0 {
		e.report()
	}
}

// fail books one failed trial into the worker's tally, charges the
// shared budget, and cancels the siblings once it is blown.
func (e *estimator) fail(local *tally, trial int, err error) {
	local.failed++
	if len(local.errs) < maxReportedErrors {
		local.errs = append(local.errs, trialError{trial: uint64(trial), err: err})
	}
	if e.failures.Add(1) > int64(e.cfg.MaxFailures) {
		e.cancel() // budget exhausted: stop the siblings promptly
	}
	e.tick()
}

// record books one completed trial's decision vector into the worker's
// tally. outs is indexed 1..m and may be reused by the caller's engine.
func (e *estimator) record(local *tally, outs []bool, m int) {
	local.completed++
	e.completedCount.Add(1)
	for i := 1; i <= m; i++ {
		if outs[i] {
			local.attacks[i]++
		}
	}
	switch protocol.Classify(outs) {
	case protocol.TotalAttack:
		local.ta++
	case protocol.PartialAttack:
		local.pa++
	default:
		local.na++
	}
	e.tick()
}

// trials is the worker loop: trials lo+w, lo+w+workers, ... < hi, with
// the processor yielded at trial boundaries (see yieldAfter).
func (e *estimator) trials(wk *worker, w, workers, lo, hi int) {
	y := yielder{start: time.Now(), read: 1}
	for trial := lo + w; trial < hi; trial += workers {
		if e.ctx.Err() != nil {
			return
		}
		e.trial(wk, trial)
		y.trialDone()
	}
}

// trial runs one trial: it takes its run (the fixed one, or a sample
// drawn from the worker's tape reseeded to runStream.Tape(trial, 0)),
// executes it, and books the outcome or the failure.
func (e *estimator) trial(wk *worker, trial int) {
	cfg := &e.cfg
	r := cfg.Run
	if cfg.Sampler != nil {
		e.runStream.Reseed(wk.tape, uint64(trial), 0)
		var err error
		if r, err = cfg.Sampler(uint64(trial), wk.tape); err != nil {
			e.fail(&wk.local, trial, fmt.Errorf("mc: sampling run for trial %d: %w", trial, err))
			return
		}
	}
	p := cfg.Protocol
	if cfg.Mutator != nil {
		var err error
		if p, err = cfg.Mutator(uint64(trial), p); err != nil {
			e.fail(&wk.local, trial, fmt.Errorf("mc: mutating protocol for trial %d: %w", trial, err))
			return
		}
	}
	outs, err := e.execute(wk, p, r, uint64(trial))
	if err != nil {
		e.fail(&wk.local, trial, fmt.Errorf("mc: trial %d: %w", trial, err))
		return
	}
	e.record(&wk.local, outs, cfg.Graph.NumVertices())
}

// yieldAfter is how long a worker runs trials before it yields its
// processor at the next trial boundary. The runtime preempts a goroutine
// that never blocks only after about 10 ms, and a server's trial workers
// can hold every processor, so without the yield its HTTP handlers,
// journal appends and timers wait out that preemption behind them.
// Yielding draws no tape bit and reorders no trial: results are
// unchanged.
const yieldAfter = 50 * time.Microsecond

// yielder paces one worker's yields. It reads the clock only at every
// read-th trial boundary of a slice, re-aiming read at each reading from
// the slice's pace so far, so a loop of fast trials pays about one clock
// reading per slice, and a trial longer than yieldAfter yields after
// every trial.
type yielder struct {
	start time.Time // when the current slice began
	ran   int       // trials finished in the current slice
	read  int       // the value of ran at which to read the clock next
}

// trialDone counts one finished trial and yields once the slice has run
// yieldAfter.
func (y *yielder) trialDone() {
	if y.ran++; y.ran < y.read {
		return
	}
	el := time.Since(y.start)
	if el < yieldAfter {
		// Read again where the pace so far ends the slice, or after twice
		// the trials when the clock has not moved yet.
		y.read = 2 * y.ran
		if el > 0 {
			y.read = max(y.ran+1, int(time.Duration(y.ran)*yieldAfter/el))
		}
		return
	}
	runtime.Gosched()
	y.read = max(1, int(time.Duration(y.ran)*yieldAfter/el))
	y.start, y.ran = time.Now(), 0
}

// runRange executes trials [lo, hi) on the workers and folds their
// tallies into the cumulative total. Trial t's tapes depend only on
// (Seed, t) and the merge is order-independent, so the result of a range
// is identical at any worker count and any batch decomposition — and
// identical between the engine and reference paths, which the
// differential suite enforces.
func (e *estimator) runRange(lo, hi int) {
	m := e.cfg.Graph.NumVertices()
	workers := min(len(e.ws), hi-lo)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A worker and its engine are built on the worker's own
			// goroutine: handing worker 0 an engine built by the caller
			// measured about 40% slower at two workers.
			if e.ws[w] == nil {
				e.ws[w] = &worker{local: tally{attacks: make([]int, m+1)}, tape: rng.NewTape(0)}
			}
			e.ws[w].local.reset()
			e.trials(e.ws[w], w, workers, lo, hi)
		}(w)
	}
	wg.Wait()
	for _, wk := range e.ws[:workers] {
		e.total.merge(&wk.local)
	}
}

// result builds the cumulative Result from the tally so far.
func (e *estimator) result() (*Result, error) {
	total := e.total
	res := &Result{
		Trials:       e.cfg.Trials,
		Completed:    total.completed,
		Failed:       total.failed,
		AttackCounts: total.attacks,
	}
	if total.completed > 0 {
		var err error
		if res.TA, err = stats.NewProportion(total.ta, total.completed); err != nil {
			return nil, err
		}
		if res.PA, err = stats.NewProportion(total.pa, total.completed); err != nil {
			return nil, err
		}
		if res.NA, err = stats.NewProportion(total.na, total.completed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Estimate runs the job. The same Config always yields the same Result:
// per-trial outcomes depend only on (Seed, trial), and aggregation is
// order-independent, so the worker count never changes the numbers —
// including the Completed/Failed counts, as long as the job is not
// cancelled mid-flight (failures within budget do not break
// determinism; they are skipped identically at every parallelism).
// Adaptive early stopping (StopWhen / TargetCIWidth) preserves this:
// the stopping rule is evaluated only at CheckEvery-trial batch
// boundaries on the cumulative tally, so the halting point — and with
// it Completed, Failed, and every proportion — is the same at any
// worker count.
//
// Estimate returns a non-nil partial Result together with the error
// when the job ends early: the error joins the context error and/or a
// budget-exhaustion report with up to 8 per-trial failures. An
// early-stopped job is not an error: it returns Result.Stopped == true
// and a nil error.
func Estimate(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	every := int64(cfg.ProgressEvery)
	if every == 0 {
		every = 1000
	}
	e := &estimator{
		cfg:         cfg,
		ctx:         ctx,
		cancel:      cancel,
		protoStream: rng.NewStream(cfg.Seed),
		runStream:   rng.NewStream(rng.Mix64(cfg.Seed ^ 0xc0ffee)),
		fast:        fastPath(cfg),
		ws:          make([]*worker, workers),
		every:       every,
		total:       &tally{attacks: make([]int, cfg.Graph.NumVertices()+1)},
	}

	stop := cfg.StopWhen
	if stop == nil && cfg.TargetCIWidth > 0 {
		target := cfg.TargetCIWidth
		stop = func(r *Result) bool { return widestWilsonWidth(r) <= target }
	}

	stopped := false
	if stop == nil {
		e.runRange(0, cfg.Trials)
	} else {
		check := cfg.CheckEvery
		if check == 0 {
			check = 1000
		}
		for lo := 0; lo < cfg.Trials; lo += check {
			if ctx.Err() != nil || e.budgetBlown() {
				break
			}
			hi := lo + check
			if hi > cfg.Trials {
				hi = cfg.Trials
			}
			e.runRange(lo, hi)
			interim, err := e.result()
			if err != nil {
				return nil, err
			}
			if stop(interim) {
				// Only a halt with budget left to burn counts as an
				// early stop; converging exactly at the last batch is an
				// ordinary completion.
				stopped = hi < cfg.Trials
				break
			}
		}
	}
	// One final Snapshot so observers always see the settled counts even
	// when Trials is not a multiple of the reporting interval.
	if cfg.Progress != nil {
		e.report()
	}

	total := e.total
	res, err := e.result()
	if err != nil {
		return nil, err
	}
	res.Stopped = stopped

	// Degradation report: a cancelled or budget-blown job still returns
	// the partial Result, with every cause joined into one error.
	// Failures within budget degrade gracefully: they are reported in
	// res.Failed, the job runs every remaining trial, and the error is
	// nil.
	var causes []error
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		causes = append(causes, cfg.Ctx.Err())
	}
	if e.budgetBlown() {
		causes = append(causes, fmt.Errorf("mc: failure budget exhausted (%d failed > MaxFailures %d)",
			total.failed, cfg.MaxFailures))
	}
	if len(causes) == 0 {
		return res, nil
	}
	// The retained per-trial errors are sorted by trial index so the
	// report is stable whatever the scheduling.
	sort.Slice(total.errs, func(a, b int) bool { return total.errs[a].trial < total.errs[b].trial })
	if len(total.errs) > maxReportedErrors {
		total.errs = total.errs[:maxReportedErrors]
	}
	for _, te := range total.errs {
		causes = append(causes, te.err)
	}
	causes = append([]error{fmt.Errorf("mc: %d/%d trials completed, %d failed",
		total.completed, cfg.Trials, total.failed)}, causes...)
	return res, errors.Join(causes...)
}
