package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// Peer health states, as reported by the failure detector. The zero
// value "" means unknown: no detector has probed the peer yet, and
// nothing (PeerDown included) may treat unknown as dead.
const (
	// HealthAlive: the peer answered its most recent ping.
	HealthAlive = "alive"
	// HealthSuspect: at least one ping missed, fewer than the
	// consecutive-miss threshold.
	HealthSuspect = "suspect"
	// HealthDead: misses reached the threshold. Dead peers are skipped
	// by PeerDown consumers (steal victim selection, local-compute
	// fallback) and watched for the dead→alive transition that triggers
	// hint delivery.
	HealthDead = "dead"
)

// Ping probes one peer's liveness with GET /v1/peer/ping. It bypasses
// the breaker's Allow gate — the whole point of the detector is to
// probe peers the breaker has written off — but feeds the breaker's
// Success/Failure, so a recovered peer's breaker closes proactively
// instead of sacrificing a real request to the half-open probe.
//
// Liveness semantics: any 2xx, or a 404 (the process answered; an older
// build without the ping route still counts as alive), means alive. A
// 5xx or transport error is a miss — a process that answers 503 is a
// corpse with a listener. The misses-th consecutive miss marks the peer
// dead; fewer make it suspect.
//
// It returns whether this ping transitioned the peer to alive, and the
// probe error if the ping missed.
func (c *Cluster) Ping(ctx context.Context, peerAddr string, misses int) (becameAlive bool, err error) {
	outcome, err := c.call(ctx, peerAddr, "ping", http.MethodGet, PingPath, nil,
		func(status int, _ []byte) (string, error) {
			if status/100 == 2 || status == http.StatusNotFound {
				return "ok", nil
			}
			return "error", nil
		})
	p := c.peers[NormalizeAddr(peerAddr)]
	switch outcome {
	case "ok":
		return p.markAlive(), nil
	case "error":
		p.markMissed(misses)
	}
	return false, err
}

// PingAll runs one failure-detector round: it pings every peer in
// parallel, each bounded by the client's peer timeout (a context
// deadline would book a hung peer as cancelled, not as a miss), and
// returns once every ping has finished — so a caller that runs rounds
// back to back never overlaps them, and no callback fires after PingAll
// returns. onAlive,
// when non-nil, is called after every successful ping with the peer's
// address and whether this ping was a transition to alive (the peer was
// previously suspect, dead, or unknown). Hint delivery hooks here: a
// dead→alive edge is the moment to drain the peer's hint queue.
// Implementations must not block for long (they hold up the round).
func (c *Cluster) PingAll(misses int, onAlive func(addr string, becameAlive bool)) {
	var wg sync.WaitGroup
	for _, addr := range c.order {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			if became, err := c.Ping(context.Background(), addr, misses); err == nil && onAlive != nil {
				onAlive(addr, became)
			}
		}(addr)
	}
	wg.Wait()
}

// markAlive records a successful ping and reports whether it was a
// transition (the peer was not already alive).
func (p *peer) markAlive() bool {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	was := p.health
	p.health = HealthAlive
	p.misses = 0
	p.lastSeen = time.Now()
	return was != HealthAlive
}

// markMissed records a failed ping against the consecutive-miss
// threshold.
func (p *peer) markMissed(threshold int) {
	p.hmu.Lock()
	defer p.hmu.Unlock()
	p.misses++
	if p.misses >= threshold {
		p.health = HealthDead
	} else {
		p.health = HealthSuspect
	}
}

// PeerHealth returns the detector's view of addr: HealthAlive,
// HealthSuspect, HealthDead, or "" when never probed.
func (c *Cluster) PeerHealth(addr string) string {
	p, ok := c.peers[NormalizeAddr(addr)]
	if !ok {
		return ""
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return p.health
}
