package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coordattack/internal/queue"
	"coordattack/internal/stats"
)

// sweepKeyVersion prefixes every sweep key, versioned independently of
// the job keyVersion (which is hashed into every cell key anyway).
const sweepKeyVersion = "coordd-sweep/v1"

// MaxSweepCells bounds the grid size of one sweep request, counted
// before deduplication so a hostile product of axes fails fast.
const MaxSweepCells = 256

// SweepSpec is the wire form of a parameter sweep: one base mc job spec
// plus value axes. The grid is the cartesian product of the axes, each
// cell a copy of the base with the axis values applied, canonicalized
// through the ordinary JobSpec path — so cells share the spec→key→cache
// machinery with individually submitted jobs, and a sweep re-run after
// its cells completed costs zero new trials.
type SweepSpec struct {
	Base JobSpec   `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// SweepAxes are the supported sweep dimensions. Empty axes are skipped;
// all-empty axes make a one-cell sweep of the base spec.
type SweepAxes struct {
	// Graphs substitutes the base graph spec.
	Graphs []string `json:"graphs,omitempty"`
	// Rounds substitutes the round count.
	Rounds []int `json:"rounds,omitempty"`
	// Epsilon substitutes the per-round abort probability of the
	// randomized protocol, rewriting the protocol spec to "s:EPS"; it
	// requires the base protocol to be empty or an "s:..." spec.
	Epsilon []float64 `json:"epsilon,omitempty"`
	// FaultRate substitutes the fault spec with "rand:P"; 0 means no
	// fault injection for that cell.
	FaultRate []float64 `json:"fault_rate,omitempty"`
	// Trials substitutes the trial budget.
	Trials []int `json:"trials,omitempty"`
	// Seeds substitutes the root seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// sweepCell is one grid point: the canonical job spec it expands to,
// its content key, and the axis coordinates for presentation. Admission
// sets job, or errMsg when a drain that began mid-admission refused the
// cell, before the sweep is registered. row is the cell's table row,
// kept under Sweep.mu from the first status that sees the cell settled,
// so a settled cell's body is decoded once, not on every poll; the
// sweep drops job and row under Sweep.mu once it settles.
type sweepCell struct {
	params map[string]string
	spec   JobSpec
	key    string

	job    *Job
	errMsg string
	row    *SweepRow
}

// sweepAxis is one row of the axis table: the parameter name, how many
// values the axis holds, and set, which applies value i to a cell spec
// and returns its rendering for the cell's params.
type sweepAxis struct {
	name string
	n    int
	set  func(s *JobSpec, i int) string
}

// table lists the six axes in their fixed expansion order, empty ones
// included. The order determines grid enumeration order, though not the
// sweep key, which is order-independent.
func (a SweepAxes) table() [6]sweepAxis {
	return [6]sweepAxis{
		{"graph", len(a.Graphs), func(s *JobSpec, i int) string {
			s.Graph = a.Graphs[i]
			return normSpec(s.Graph)
		}},
		{"rounds", len(a.Rounds), func(s *JobSpec, i int) string {
			s.Rounds = a.Rounds[i]
			return strconv.Itoa(s.Rounds)
		}},
		{"epsilon", len(a.Epsilon), func(s *JobSpec, i int) string {
			v := fmt.Sprintf("%g", a.Epsilon[i])
			s.Protocol = "s:" + v
			return v
		}},
		{"fault_rate", len(a.FaultRate), func(s *JobSpec, i int) string {
			v := fmt.Sprintf("%g", a.FaultRate[i])
			s.Fault = ""
			if a.FaultRate[i] != 0 {
				s.Fault = "rand:" + v
			}
			return v
		}},
		{"trials", len(a.Trials), func(s *JobSpec, i int) string {
			s.Trials = a.Trials[i]
			return strconv.Itoa(s.Trials)
		}},
		{"seed", len(a.Seeds), func(s *JobSpec, i int) string {
			s.Seed = a.Seeds[i]
			return strconv.FormatUint(s.Seed, 10)
		}},
	}
}

// expand validates the sweep and returns its deduplicated cell grid in
// enumeration order plus the sweep key. The grid is sized from the axis
// lengths before any cell is built, so an oversized sweep — too many
// cells, or cells times the base's encoded size past maxBodyBytes — is
// refused without rendering a value. Cells are enumerated by index, the
// last non-empty axis fastest, and each is canonicalized once through
// JobSpec.Canonicalize: an invalid grid point rejects the whole sweep
// at submit time, and a cell leaves here canonical and keyed. Cells
// whose canonical keys collide (two spellings of one computation, or a
// duplicated axis value) are merged, keeping the first occurrence.
func (ss SweepSpec) expand() ([]*sweepCell, string, error) {
	if e := normSpec(ss.Base.Engine); e != "" && e != EngineMC {
		return nil, "", fmt.Errorf("service: sweeps support only the mc engine, got %q", ss.Base.Engine)
	}
	if len(ss.Axes.Epsilon) > 0 {
		if p := normSpec(ss.Base.Protocol); p != "" && !strings.HasPrefix(p, "s:") {
			return nil, "", fmt.Errorf("service: epsilon axis needs an s:EPS base protocol, got %q", ss.Base.Protocol)
		}
	} else if normSpec(ss.Base.Protocol) == "" {
		return nil, "", fmt.Errorf("service: sweep base needs a protocol (or an epsilon axis)")
	}

	var axes []sweepAxis
	cells := 1
	for _, ax := range ss.Axes.table() {
		if ax.n == 0 {
			continue
		}
		// Checked per axis, so the product cannot overflow.
		if cells *= ax.n; cells > MaxSweepCells {
			return nil, "", fmt.Errorf("service: sweep grid exceeds %d cells", MaxSweepCells)
		}
		axes = append(axes, ax)
	}
	// Every cell parses the base's run again when it is canonicalized,
	// and journals its own copy of the spec when it is enqueued, so the
	// grid may not multiply the base past one submission body.
	base, err := json.Marshal(ss.Base)
	if err != nil {
		return nil, "", fmt.Errorf("service: sweep base: %w", err)
	}
	if cells*len(base) > maxBodyBytes {
		return nil, "", fmt.Errorf("service: sweep of %d cells over a %d-byte base exceeds %d bytes", cells, len(base), maxBodyBytes)
	}

	out := make([]*sweepCell, 0, cells)
	seen := make(map[string]bool, cells)
	for c := 0; c < cells; c++ {
		spec := ss.Base
		params := make(map[string]string, len(axes))
		for i, rest := len(axes)-1, c; i >= 0; i-- {
			ax := axes[i]
			params[ax.name] = ax.set(&spec, rest%ax.n)
			rest /= ax.n
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return nil, "", fmt.Errorf("service: sweep cell %v: %w", params, err)
		}
		if key := canon.Key(); !seen[key] {
			seen[key] = true
			out = append(out, &sweepCell{params: params, spec: canon, key: key})
		}
	}

	// The sweep key is content-addressed over the *set* of cell keys:
	// axis reorderings and duplicate values that expand to the same grid
	// share a key.
	keys := make([]string, 0, len(out))
	for _, c := range out {
		keys = append(keys, c.key)
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(sweepKeyVersion + "\n" + strings.Join(keys, "\n")))
	return out, hex.EncodeToString(sum[:]), nil
}

// Sweep is one submitted sweep: its cells, admitted as ordinary jobs;
// its entry's done channel closes when every cell has settled.
type Sweep struct {
	entry
	key   string
	cells []*sweepCell

	// mu guards the cells' jobs and kept rows, and final: the table
	// frozen once every cell has settled, when the cells drop both so a
	// retained sweep holds no result bodies and outlives their eviction.
	mu    sync.Mutex
	final *SweepStatus
}

// SweepRow is one cell of the tradeoff table served by the sweep
// endpoints. For a done cell the Wilson 95% intervals of the outcome
// estimates are rolled up from the job body, TA being the liveness (L)
// and PA the unsafety (U) of the paper's tradeoff; LOverU is their
// point-estimate ratio when PA is nonzero — the quantity the paper
// bounds by the round count.
type SweepRow struct {
	Params    map[string]string `json:"params"`
	JobID     string            `json:"job_id,omitempty"`
	Key       string            `json:"key"`
	State     State             `json:"state"`
	Cached    bool              `json:"cached,omitempty"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Completed int               `json:"completed,omitempty"`
	Stopped   bool              `json:"stopped,omitempty"`
	TA        *stats.Interval   `json:"ta_wilson95,omitempty"`
	PA        *stats.Interval   `json:"pa_wilson95,omitempty"`
	NA        *stats.Interval   `json:"na_wilson95,omitempty"`
	LOverU    float64           `json:"l_over_u,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// SweepStatus is the aggregate wire form of a sweep.
type SweepStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	Cells int    `json:"cells"`
	// Done/Failed/Cancelled count settled cells; Done counts successes
	// only.
	Done      int        `json:"done"`
	Failed    int        `json:"failed,omitempty"`
	Cancelled int        `json:"cancelled,omitempty"`
	Table     []SweepRow `json:"table"`
}

// SubmitSweep expands spec into its cell grid and admits the sweep as
// one unit. It is refused up front while draining (ErrDraining) or while
// both pools already hold QueueDepth pending jobs in all (ErrQueueFull),
// so a backlog of either class defers new sweeps. Otherwise
// every cell goes through submit as accepted work — served from the
// result cache, coalesced onto an in-flight twin, or enqueued on the
// sweep's own flow past MaxDepth — and only then is the sweep
// registered: its id never shows with a cell unadmitted, and with a
// journal the returned status, like a job's 202, means every enqueued
// cell's accept is durable. Poll or watch the sweep for the rolled-up
// table.
func (s *Server) SubmitSweep(spec SweepSpec) (*SweepStatus, error) {
	cells, key, err := spec.expand()
	if err != nil {
		return nil, err
	}
	s.metrics.SweepsSubmitted.Add(1)
	s.metrics.SweepCells.Add(int64(len(cells)))

	// One sweep is admitted at a time, so the depth check covers every
	// cell admitted after it: the sweep class stays below QueueDepth +
	// MaxSweepCells, on top of the interactive class's own QueueDepth.
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.queued() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.SweepsRejected.Add(1)
		return nil, ErrQueueFull
	}
	sw := &Sweep{entry: s.newEntry("sw"), key: key, cells: cells}
	// awaitSweep's share, taken under the lock so that a sweep accepted
	// before draining is always waited for.
	s.wg.Add(1)
	s.mu.Unlock()
	s.metrics.JobsSubmitted.Add(int64(len(cells)))
	accepted := time.Now()
	for _, c := range cells {
		// The cell arrives canonical and keyed from expand.
		c.job = s.newJob(c.spec, c.key, queue.ClassSweep, sw.id)
		if err := s.submit(c.job, accepted); err != nil {
			c.job, c.errMsg = nil, err.Error() // the server began draining
		}
	}
	s.mu.Lock()
	s.sweeps[sw.id] = sw
	s.mu.Unlock()
	go s.awaitSweep(sw)
	return sw.status(), nil
}

// awaitSweep waits for every admitted cell to settle, freezes the
// sweep's table and settles the sweep.
func (s *Server) awaitSweep(sw *Sweep) {
	defer s.wg.Done()
	for _, c := range sw.cells {
		if c.job != nil {
			<-c.job.done
		}
	}
	final := sw.status()
	sw.mu.Lock()
	sw.final = final
	for _, c := range sw.cells {
		c.job, c.row = nil, nil
	}
	sw.mu.Unlock()
	// The sweep settles, then the retention pass runs, so a just-settled
	// sweep immediately counts toward the limit.
	close(sw.done)
	s.mu.Lock()
	retain(s.sweeps, s.cfg.SweepRetention, &s.metrics.SweepsEvicted)
	s.mu.Unlock()
}

// status renders the aggregate view: per-cell job status with the
// Wilson intervals unpacked from done bodies, and the rolled-up state —
// running until every cell settles, then done / failed / cancelled by
// worst cell outcome. A settled sweep answers with its frozen table,
// one value shared by every caller.
func (sw *Sweep) status() *SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.final != nil {
		return sw.final
	}
	st := &SweepStatus{
		ID:    sw.id,
		Key:   sw.key,
		Cells: len(sw.cells),
		Table: make([]SweepRow, 0, len(sw.cells)),
	}
	settled := 0
	for _, c := range sw.cells {
		row := c.render()
		if row.State.Terminal() {
			settled++
			switch row.State {
			case StateDone:
				st.Done++
			case StateFailed:
				st.Failed++
			default:
				st.Cancelled++
			}
		}
		st.Table = append(st.Table, row)
	}
	switch {
	case settled < len(sw.cells):
		st.State = StateRunning
	case st.Failed > 0:
		st.State = StateFailed
	case st.Cancelled > 0:
		st.State = StateCancelled
	default:
		st.State = StateDone
	}
	return st
}

// render returns the cell's table row: the kept one once the cell has
// settled, else a fresh one, kept when it shows the cell settled. The
// caller holds Sweep.mu.
func (c *sweepCell) render() SweepRow {
	if c.row != nil {
		return *c.row
	}
	row := SweepRow{Params: c.params, Key: c.key, State: StateQueued}
	if c.job != nil {
		js := c.job.status()
		row.JobID = js.ID
		row.State = js.State
		row.Cached = js.Cached
		row.Coalesced = js.Coalesced
		row.Completed = js.Progress.Completed
		row.Error = js.Error
		if js.State == StateDone {
			fillRowFromBody(&row, js.Result)
		}
	} else if c.errMsg != "" {
		row.State = StateCancelled
		row.Error = c.errMsg
	}
	if row.State.Terminal() {
		c.row = &row
	}
	return row
}

// fillRowFromBody unpacks a done mc body's intervals into the row. A
// body that does not parse as an mc result (foreign engine, corrupt
// cache) just leaves the intervals absent.
func fillRowFromBody(row *SweepRow, body json.RawMessage) {
	var b mcBody
	if err := json.Unmarshal(body, &b); err != nil || b.Result == nil {
		return
	}
	ta, pa, na := b.TAWilson95, b.PAWilson95, b.NAWilson95
	row.TA, row.PA, row.NA = &ta, &pa, &na
	row.Stopped = b.Result.Stopped
	if b.Result.Completed > 0 && b.Result.PA.Hits > 0 {
		row.LOverU = b.Result.TA.Mean() / b.Result.PA.Mean()
	}
}

func (s *Server) sweep(id string) (*Sweep, error) { return lookup(s, s.sweeps, id) }

// CancelSweep cancels a whole sweep: the cancellation fans out to every
// cell through the ordinary job cancel path — queued cells settle
// immediately, running cells when their engine notices, settled cells
// are untouched (cancelling is idempotent), so cancelling a settled
// sweep is a no-op that just returns its status. A registered sweep has
// every cell admitted, so no cell escapes the fan-out. Unknown ids are
// ErrNotFound.
func (s *Server) CancelSweep(id string) (*SweepStatus, error) {
	sw, err := s.sweep(id)
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	sw.mu.Lock()
	for _, c := range sw.cells {
		if c.job != nil {
			jobs = append(jobs, c.job)
		}
	}
	sw.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
	return sw.status(), nil
}

// GetSweep returns a sweep's current aggregate status.
func (s *Server) GetSweep(id string) (*SweepStatus, error) {
	sw, err := s.sweep(id)
	if err != nil {
		return nil, err
	}
	return sw.status(), nil
}

// Sweeps lists every known sweep, oldest first.
func (s *Server) Sweeps() []*SweepStatus { return listed(s, s.sweeps, (*Sweep).status) }
