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
// every Config.WatchdogInterval: it kills every currently stuck job by
// settling it failed with a WatchdogError from running, which frees its
// worker (runJob waits for the engine or the settle) and leaves the
// wedged engine behind. The stuck predicate is deliberately
// conservative — both clauses must hold for the full grace period:
//
//   - the job is running and its deadline passed more than grace ago
//     (the context fired and the engine still has not returned), and
//   - the progress counters have not advanced for more than grace (the
//     engine is not merely finishing a slow tail of trials).
//
// A job whose engine returns between the scan and the kill is settled
// by its worker, and the kill's settle declines.
func (s *Server) scanStuck(now time.Time) {
	grace := s.cfg.WatchdogGrace
	s.mu.Lock()
	var stuck []*Job
	for _, j := range s.jobs {
		j.mu.Lock()
		running := j.state == StateRunning
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
		werr := &WatchdogError{
			JobID:    j.id,
			Deadline: j.deadline,
			IdleFor:  now.Sub(time.Unix(0, j.lastMove.Load())),
			Grace:    grace,
		}
		s.settle(j, StateRunning, StateFailed, nil, werr.Error(), &s.metrics.WatchdogKills)
	}
}
