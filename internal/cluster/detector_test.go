package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flipHandler is an http.Handler whose status code can be swapped at
// runtime: the test's stand-in for a peer that dies and recovers.
type flipHandler struct {
	status atomic.Int64
}

func (h *flipHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(int(h.status.Load()))
}

func TestPeerHealthStateMachine(t *testing.T) {
	h := &flipHandler{}
	h.status.Store(http.StatusOK)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Options{
		Self:             "http://self.invalid:1",
		Peers:            []string{srv.URL},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // breakers must recover via ping, not cooldown
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := NormalizeAddr(srv.URL)
	if got := c.PeerHealth(addr); got != "" {
		t.Fatalf("health before any probe = %q, want unknown", got)
	}
	if c.PeerDown(addr) {
		t.Fatal("unknown health must not count as down")
	}

	ctx := context.Background()
	became, err := c.Ping(ctx, addr, 3)
	if err != nil || !became {
		t.Fatalf("first ping: became=%v err=%v, want transition to alive", became, err)
	}
	if got := c.PeerHealth(addr); got != HealthAlive {
		t.Fatalf("health after ping = %q", got)
	}
	if became, _ = c.Ping(ctx, addr, 3); became {
		t.Fatal("second successful ping reported a transition")
	}

	// The peer starts answering 503: a corpse with a listener. One miss
	// is suspicion; the threshold (3) is death.
	h.status.Store(http.StatusServiceUnavailable)
	if _, err := c.Ping(ctx, addr, 3); err == nil {
		t.Fatal("ping against 503 succeeded")
	}
	if got := c.PeerHealth(addr); got != HealthSuspect {
		t.Fatalf("health after one miss = %q, want suspect", got)
	}
	if c.PeerDown(addr) {
		t.Fatal("suspect peer reported down")
	}
	c.Ping(ctx, addr, 3)
	c.Ping(ctx, addr, 3)
	if got := c.PeerHealth(addr); got != HealthDead {
		t.Fatalf("health after threshold misses = %q, want dead", got)
	}
	if !c.PeerDown(addr) {
		t.Fatal("dead peer not reported down")
	}
	// Three ping failures also opened the breaker (threshold 3).
	if snap := c.Snapshot(); snap.Peers[0].Breaker != StateOpen {
		t.Fatalf("breaker after ping misses = %s, want open", snap.Peers[0].Breaker)
	}

	// Recovery: the next successful ping flips health to alive AND
	// closes the breaker proactively — no half-open request sacrifice,
	// and the hour-long cooldown never elapses.
	h.status.Store(http.StatusOK)
	became, err = c.Ping(ctx, addr, 3)
	if err != nil || !became {
		t.Fatalf("recovery ping: became=%v err=%v", became, err)
	}
	if c.PeerDown(addr) {
		t.Fatal("recovered peer still reported down")
	}
	snap := c.Snapshot()
	if snap.Peers[0].Breaker != StateClosed {
		t.Fatalf("breaker after recovery ping = %s, want closed", snap.Peers[0].Breaker)
	}
	if snap.Peers[0].Health != HealthAlive || snap.Peers[0].LastSeenUnix == 0 {
		t.Fatalf("snapshot health = %+v", snap.Peers[0])
	}
}

func TestPeerPing404IsAlive(t *testing.T) {
	// An older coordd build has no ping route and answers 404; the
	// process is plainly alive and must not be declared dead.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	became, err := c.Ping(context.Background(), srv.URL, 3)
	if err != nil || !became {
		t.Fatalf("ping against 404: became=%v err=%v", became, err)
	}
	if got := c.PeerHealth(srv.URL); got != HealthAlive {
		t.Fatalf("health = %q, want alive", got)
	}
}

// TestPingAllRoundsAndOnAlive drives the failure detector one PingAll
// round at a time: at a threshold of 2 misses a 503 peer is suspect
// after one round and dead after two, and once it heals exactly one
// alive transition fires however many rounds follow.
func TestPingAllRoundsAndOnAlive(t *testing.T) {
	h := &flipHandler{}
	h.status.Store(http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Options{
		Self:            "http://self.invalid:1",
		Peers:           []string{srv.URL},
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := NormalizeAddr(srv.URL)

	var alive, transitions []string
	onAlive := func(a string, became bool) {
		alive = append(alive, a)
		if became {
			transitions = append(transitions, a)
		}
	}
	c.PingAll(2, onAlive)
	if got := c.PeerHealth(addr); got != HealthSuspect {
		t.Fatalf("health after one missed round = %q, want suspect", got)
	}
	c.PingAll(2, onAlive)
	if got := c.PeerHealth(addr); got != HealthDead {
		t.Fatalf("health after two missed rounds = %q, want dead", got)
	}
	if len(alive) != 0 {
		t.Fatalf("OnAlive fired for a missed ping: %v", alive)
	}

	// Heal the peer: the next round revives it and fires the dead→alive
	// transition; later rounds report alive without a transition.
	h.status.Store(http.StatusOK)
	for i := 0; i < 3; i++ {
		c.PingAll(2, onAlive)
	}
	if got := c.PeerHealth(addr); got != HealthAlive {
		t.Fatalf("health after the peer healed = %q, want alive", got)
	}
	if len(alive) != 3 || len(transitions) != 1 || transitions[0] != addr {
		t.Fatalf("alive callbacks = %v, transitions = %v; want 3 and exactly one for %s", alive, transitions, addr)
	}
}
