package service

import (
	"fmt"
	"time"
)

// WatchdogError is the structured failure a stuck job settles with: the
// job was past its deadline by more than the grace period and its
// progress counters had not moved for at least as long, so the watchdog
// declared the engine wedged and killed the job.
//
// A healthy engine never meets this error — a deadline-expired engine
// that honors its context returns promptly and settles the job as
// cancelled with a partial result. The watchdog exists for the engine
// that ignores cancellation entirely (an infinite loop, a blocked
// syscall): without it, that engine's job never settles and its worker
// slot is lost until restart.
type WatchdogError struct {
	JobID    string
	Deadline time.Time
	IdleFor  time.Duration
	Grace    time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("service: watchdog killed stuck job %s: %s past deadline, no progress for %s (grace %s)",
		e.JobID, time.Since(e.Deadline).Round(time.Millisecond), e.IdleFor.Round(time.Millisecond), e.Grace)
}

// scanStuck is one round of the stuck-job watchdog, which New runs
// every Config.WatchdogInterval: it collects the currently stuck jobs
// and kills each one. The stuck predicate is deliberately conservative
// — both clauses must hold for the full grace period:
//
//   - the job is running on a worker and its deadline passed more than
//     grace ago (the context fired and the engine still has not
//     returned), and
//   - the progress counters have not advanced for more than grace (the
//     engine is not merely finishing a slow tail of trials).
func (s *Server) scanStuck(now time.Time) {
	grace := s.cfg.WatchdogGrace
	s.mu.Lock()
	var stuck []*Job
	for _, j := range s.jobs {
		j.mu.Lock()
		running := j.state == StateRunning && j.token != nil
		j.mu.Unlock()
		if !running || now.Before(j.deadline.Add(grace)) {
			continue
		}
		if now.Sub(time.Unix(0, j.lastMove.Load())) <= grace {
			continue
		}
		stuck = append(stuck, j)
	}
	s.mu.Unlock()
	for _, j := range stuck {
		s.killStuck(j, now)
	}
}

// killStuck settles a stuck job as failed with a WatchdogError, frees
// its worker slot, and restores pool capacity by abandoning the wedged
// worker goroutine and spawning a replacement. The wedged goroutine is
// left blocked in its engine: if the engine ever returns, the goroutine
// notices its abandoned token and exits instead of rejoining the pool.
func (s *Server) killStuck(j *Job, now time.Time) {
	j.mu.Lock()
	t := j.token
	j.mu.Unlock()
	werr := &WatchdogError{
		JobID:    j.id,
		Deadline: j.deadline,
		IdleFor:  now.Sub(time.Unix(0, j.lastMove.Load())),
		Grace:    s.cfg.WatchdogGrace,
	}
	// Freeing the slot first is safe either way: the worker and the
	// watchdog free it at most once between them.
	s.freeSlot(j)
	if !s.settle(j, StateRunning, StateFailed, nil, werr.Error(), &s.metrics.WatchdogKills) {
		// The engine returned between the scan and here; the worker
		// settled the job itself and nothing is stuck anymore.
		return
	}
	if t != nil {
		t.abandoned.Store(true)
		s.mu.Lock()
		if !s.draining {
			// Replace the wedged worker so the pool keeps its capacity.
			// In the rare race where the engine returned just after the
			// scan, the "wedged" worker sees the abandoned flag too late
			// and keeps looping shareless until drain — a brief +1 of
			// capacity, never a loss.
			s.wg.Add(1)
			go s.worker()
		}
		s.mu.Unlock()
		t.release(&s.wg)
	}
}
