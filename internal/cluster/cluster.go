package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"coordattack/internal/queue"
)

// Peer-protocol paths, served by the coordd HTTP layer and dialed by
// this client. The contract: GET returns the bit-identical stored body
// for a key (404 = clean miss), PUT replicates a computed body to its
// ring owner, and POST /v1/peer/steal hands accepted-but-unstarted jobs
// from an overloaded peer's queue to an idle one.
const (
	ResultsPathPrefix = "/v1/peer/results/"
	StealPath         = "/v1/peer/steal"
	JobsPathPrefix    = "/v1/peer/jobs/"
	// PingPath is the failure detector's heartbeat target: any answer
	// from the process (including 404 from an older build) counts as
	// alive; only transport errors and 5xx count as misses.
	PingPath = "/v1/peer/ping"
)

// MaxResultBytes bounds a result body on the peer protocol: a fetched
// answer past it is treated as a peer error, and a replicated body past
// it is refused. Anything bigger is not a coordd result.
const MaxResultBytes = 32 << 20

// StealRequest is the body of POST /v1/peer/steal: how many jobs the
// thief can take and the thief's advertise address, which the victim
// polls for the stolen jobs' results.
type StealRequest struct {
	Want  int    `json:"want"`
	Thief string `json:"thief"`
}

// StealResponse is the victim's grant (possibly empty): each job as the
// accept record the victim's journal keeps for it, admission time
// included. The victim's canonical key is what it will poll for. The
// record's key, flow, class, priority and spec fields keep the names an
// older thief decodes; op and at are new, and an older thief ignores
// them.
type StealResponse struct {
	Jobs []queue.Record `json:"jobs"`
}

// Options configures New.
type Options struct {
	// Self is this node's advertise address — how peers reach it (e.g.
	// "http://10.0.0.1:8344" or "10.0.0.1:8344"; a missing scheme
	// defaults to http). Self is always a ring member.
	Self string
	// Peers are the other cluster members' advertise addresses. Self may
	// appear in the list (operators pass one identical -peers flag to
	// every node) and is filtered out of the dial set.
	Peers []string
	// Factor is the replication factor: how many distinct ring members
	// (owner first, then clockwise successors) hold each result. <= 0
	// means DefaultFactor; values above the member count are clamped.
	Factor int
	// Transport, when non-nil, replaces the HTTP transport used for all
	// peer requests. The chaos harness injects a fault transport here;
	// production leaves it nil (http.DefaultTransport).
	Transport http.RoundTripper
	// Timeout bounds one peer HTTP exchange; 0 means 500 ms. Peer
	// lookups sit on the job path, so this is deliberately short: a slow
	// peer must cost less than the engine run it might save.
	Timeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker short-circuits
	// requests before admitting a probe; 0 means 10 s.
	BreakerCooldown time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// now overrides the breaker clock in tests.
	now func() time.Time
}

// peer is one remote cluster member: its address, breaker state, and
// the failure detector's health view.
type peer struct {
	addr    string
	breaker *Breaker

	hmu      sync.Mutex
	health   string // "", HealthAlive, HealthSuspect, HealthDead
	misses   int    // consecutive failed pings
	lastSeen time.Time
}

// reqKey labels one cell of the peer-request counter matrix.
type reqKey struct{ peer, op, outcome string }

// Cluster is the node-local cluster view: the ring, the dialable peers,
// their breakers, and the request counters. Safe for concurrent use.
type Cluster struct {
	self   string
	factor int
	ring   *Ring
	peers  map[string]*peer // addr → peer, self excluded
	order  []string         // sorted peer addrs, self excluded
	client *http.Client
	logf   func(string, ...any)

	mu   sync.Mutex
	reqs map[reqKey]int64
}

// NormalizeAddr canonicalizes a peer address: trims space and trailing
// slashes and defaults the scheme to http, so "10.0.0.1:8344" and
// "http://10.0.0.1:8344/" are the same ring member.
func NormalizeAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// New builds the cluster view. The ring contains self plus every peer;
// the dial set is the peers only.
func New(opts Options) (*Cluster, error) {
	self := NormalizeAddr(opts.Self)
	if self == "" {
		return nil, fmt.Errorf("cluster: empty self (advertise) address")
	}
	// Spellings of one address normalize to one entry here, so the ring
	// members — self plus this map's keys — are distinct.
	peers := make(map[string]*peer)
	for _, p := range opts.Peers {
		if addr := NormalizeAddr(p); addr != "" && addr != self && peers[addr] == nil {
			peers[addr] = &peer{
				addr:    addr,
				breaker: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.now),
			}
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers besides self %s", self)
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	order := make([]string, 0, len(peers))
	for addr := range peers {
		order = append(order, addr)
	}
	sort.Strings(order)
	members := append([]string{self}, order...)
	factor := opts.Factor
	if factor <= 0 {
		factor = DefaultFactor
	}
	if factor > len(members) {
		factor = len(members)
	}
	return &Cluster{
		self:   self,
		factor: factor,
		ring:   NewRing(members, DefaultVNodes),
		peers:  peers,
		order:  order,
		client: &http.Client{Timeout: timeout, Transport: opts.Transport},
		logf:   logf,
		reqs:   make(map[reqKey]int64),
	}, nil
}

// Self returns this node's normalized advertise address.
func (c *Cluster) Self() string { return c.self }

// Owner returns the ring owner of key (possibly self).
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Factor returns the effective replication factor.
func (c *Cluster) Factor() int { return c.factor }

// ReplicaSet returns key's replica set: the ring owner plus its
// distinct clockwise successors, Factor peers in total (fewer when the
// ring is smaller). Every node computes the same set for a key.
func (c *Cluster) ReplicaSet(key string) []string { return c.ring.Owners(key, c.factor) }

// Replicas returns key's replica set without self, in ring order: the
// peers that should hold key's result besides this node.
func (c *Cluster) Replicas(key string) []string {
	return slices.DeleteFunc(c.ReplicaSet(key), func(addr string) bool { return addr == c.self })
}

// PeerAddrs returns the dialable peers (self excluded), sorted.
func (c *Cluster) PeerAddrs() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// PeerDown reports whether addr is presumed dead: its breaker is
// currently refusing requests, or the failure detector has marked it
// dead. Unknown health ("", detector never probed) does not count —
// a node without a running detector sees exactly the old breaker-only
// behavior.
func (c *Cluster) PeerDown(addr string) bool {
	p, ok := c.peers[NormalizeAddr(addr)]
	if !ok {
		return false
	}
	if p.breaker.State() == StateOpen {
		return true
	}
	p.hmu.Lock()
	defer p.hmu.Unlock()
	return p.health == HealthDead
}

func (c *Cluster) count(peerAddr, op, outcome string) {
	c.mu.Lock()
	c.reqs[reqKey{peerAddr, op, outcome}]++
	c.mu.Unlock()
}

// FetchResult consults key's replicas for a stored result: the ring
// owner first, then each distinct successor, skipping self (the caller
// already missed locally). It returns on the first hit, along with the
// address of the peer that served it (so the caller's read-repair can
// exclude the one replica known to hold the body); misses and failures
// fall through to the next replica — a peer problem must never be worse
// than a cache miss.
func (c *Cluster) FetchResult(ctx context.Context, key string) ([]byte, string, bool) {
	for _, addr := range c.Replicas(key) {
		if body, found, _ := c.FetchFrom(ctx, addr, key); found {
			return body, addr, true
		}
	}
	return nil, "", false
}

// call is the one peer round trip under every peer method. It resolves
// the peer, sends nothing when the caller has already given up (ctx
// done on entry: outcome "cancelled", no breaker verdict — the peer did
// nothing wrong), asks its breaker for admission (pings skip the gate:
// probing peers the breaker has written off is the detector's job),
// sends the request, and reads at most MaxResultBytes of the answer.
// classify maps the answer to an outcome: "hit", "miss" or "ok" book a
// Success on the breaker, "error" books a Failure, as do transport and
// read errors — unless the caller's context is done by then, which
// books "cancelled" and no verdict. Either way one {op,outcome} count
// moves. call returns the outcome ("open" when the breaker refused, ""
// when the peer is unknown) and the error for every outcome but hit,
// miss and ok.
func (c *Cluster) call(ctx context.Context, peerAddr, op, method, path string, body []byte,
	classify func(status int, body []byte) (string, error)) (string, error) {
	p, ok := c.peers[NormalizeAddr(peerAddr)]
	if !ok {
		return "", fmt.Errorf("cluster: unknown peer %s", peerAddr)
	}
	if err := ctx.Err(); err != nil {
		c.count(p.addr, op, "cancelled")
		return "cancelled", err
	}
	if op != "ping" && !p.breaker.Allow() {
		c.count(p.addr, op, "open")
		return "open", fmt.Errorf("cluster: breaker open for %s", p.addr)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.addr+path, rd)
	if err != nil {
		return "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	outcome := "error"
	resp, err := c.client.Do(req)
	if err == nil {
		var answer []byte
		answer, err = io.ReadAll(io.LimitReader(resp.Body, MaxResultBytes+1))
		resp.Body.Close()
		if err == nil && len(answer) > MaxResultBytes {
			err = fmt.Errorf("cluster: answer from %s exceeds %d bytes", p.addr, MaxResultBytes)
		}
		if err == nil {
			if outcome, err = classify(resp.StatusCode, answer); outcome == "error" && err == nil {
				err = fmt.Errorf("cluster: peer %s answered %d to %s", p.addr, resp.StatusCode, op)
			}
		}
	}
	switch {
	case outcome == "error" && ctx.Err() != nil:
		// The caller gave up mid-exchange: no verdict on the peer either,
		// and a half-open probe slot goes back to the next request.
		outcome = "cancelled"
		p.breaker.Release()
	case outcome == "error":
		p.breaker.Failure()
	default:
		p.breaker.Success()
	}
	c.count(p.addr, op, outcome)
	return outcome, err
}

// lookup classifies an existence answer: 200 is a hit, 404 a clean miss
// (the peer is alive and has nothing), anything else an error.
func lookup(status int, _ []byte) (string, error) {
	switch status {
	case http.StatusOK:
		return "hit", nil
	case http.StatusNotFound:
		return "miss", nil
	}
	return "error", nil
}

// accepted classifies a write: any 2xx is ok.
func accepted(status int, _ []byte) (string, error) {
	if status/100 == 2 {
		return "ok", nil
	}
	return "error", nil
}

// FetchFrom asks one peer for key's result bytes. It returns
// (body, true, nil) on a hit, (nil, false, nil) on a clean miss (the
// peer answered 404 — alive, no result yet), and (nil, false, err) on a
// breaker-open short circuit or transport/protocol failure.
func (c *Cluster) FetchFrom(ctx context.Context, peerAddr, key string) ([]byte, bool, error) {
	var body []byte
	outcome, err := c.call(ctx, peerAddr, "results", http.MethodGet, ResultsPathPrefix+key, nil,
		func(status int, answer []byte) (string, error) {
			body = answer
			return lookup(status, answer)
		})
	if outcome != "hit" {
		return nil, false, err
	}
	return body, true, nil
}

// PushTo replicates a computed body to one specific peer.
func (c *Cluster) PushTo(ctx context.Context, peerAddr, key string, body []byte) error {
	outcome, err := c.call(ctx, peerAddr, "replicate", http.MethodPut, ResultsPathPrefix+key, body, accepted)
	if outcome == "error" {
		c.logf("cluster: replicating %s to %s: %v", key[:8], NormalizeAddr(peerAddr), err)
	}
	return err
}

// HasResult asks one peer whether it holds key's result, without
// transferring the body (HEAD). The anti-entropy repair loop uses it to
// probe replicas cheaply before pushing.
func (c *Cluster) HasResult(ctx context.Context, peerAddr, key string) (bool, error) {
	outcome, err := c.call(ctx, peerAddr, "probe", http.MethodHead, ResultsPathPrefix+key, nil, lookup)
	return outcome == "hit", err
}

// StealFrom asks one peer to hand over up to want pending jobs. An
// empty grant is a normal outcome (the peer is not overloaded), not a
// failure.
func (c *Cluster) StealFrom(ctx context.Context, peerAddr string, want int) ([]queue.Record, error) {
	reqBody, _ := json.Marshal(StealRequest{Want: want, Thief: c.self}) // an int and a string cannot fail to marshal
	var grant StealResponse
	_, err := c.call(ctx, peerAddr, "steal", http.MethodPost, StealPath, reqBody,
		func(status int, answer []byte) (string, error) {
			if status != http.StatusOK {
				return "error", nil
			}
			if err := json.Unmarshal(answer, &grant); err != nil {
				return "error", err
			}
			if len(grant.Jobs) > 0 {
				return "hit", nil
			}
			return "miss", nil
		})
	if err != nil {
		return nil, err
	}
	return grant.Jobs, nil
}

// KnowsJob asks one peer whether it has any record of key — an inflight
// job, a cached or stored result. The victim's stolen-job follower uses
// it to distinguish "thief is working on it / restarted with it in its
// WAL" (keep waiting) from "thief never durably took it" (reclaim and
// run locally). (true, nil) = peer knows the key; (false, nil) = peer
// is alive and has no record; err = can't tell.
func (c *Cluster) KnowsJob(ctx context.Context, peerAddr, key string) (bool, error) {
	outcome, err := c.call(ctx, peerAddr, "jobs", http.MethodGet, JobsPathPrefix+key, nil, lookup)
	return outcome == "hit", err
}

// ReqStat is one cell of the peer-request counter matrix, the
// coordd_peer_requests_total{peer,op,outcome} series.
type ReqStat struct {
	Peer    string `json:"peer"`
	Op      string `json:"op"`
	Outcome string `json:"outcome"`
	Count   int64  `json:"count"`
}

// PeerInfo is one peer's operational state for /healthz and the admin
// endpoint.
type PeerInfo struct {
	Addr     string `json:"addr"`
	Breaker  string `json:"breaker"`
	Failures int    `json:"consecutive_failures,omitempty"`
	// Health is the failure detector's view: alive, suspect, or dead.
	// Empty when no detector has probed this peer.
	Health string `json:"health,omitempty"`
	// Misses is the current consecutive failed-ping count.
	Misses int `json:"missed_pings,omitempty"`
	// LastSeenUnix is when the peer last answered a ping (unix seconds);
	// 0 when it never has.
	LastSeenUnix int64 `json:"last_seen_unix,omitempty"`
}

// Snapshot is the point-in-time cluster view served by
// GET /v1/admin/cluster and folded into /metrics and /healthz.
type Snapshot struct {
	Self string `json:"self"`
	// Members is the full ring membership (self included), sorted — the
	// denominator operators compare the replication factor against.
	Members  []string   `json:"members"`
	VNodes   int        `json:"vnodes"`
	Factor   int        `json:"factor"`
	Peers    []PeerInfo `json:"peers"`
	Requests []ReqStat  `json:"requests"`
}

// Snapshot captures the current peer and counter state, peers and
// counters in stable sorted order.
func (c *Cluster) Snapshot() Snapshot {
	snap := Snapshot{Self: c.self, VNodes: DefaultVNodes, Factor: c.factor}
	snap.Members = append(append(snap.Members, c.self), c.order...)
	sort.Strings(snap.Members)
	for _, addr := range c.order {
		p := c.peers[addr]
		info := PeerInfo{
			Addr:     p.addr,
			Breaker:  p.breaker.State(),
			Failures: p.breaker.Failures(),
		}
		p.hmu.Lock()
		info.Health = p.health
		info.Misses = p.misses
		if !p.lastSeen.IsZero() {
			info.LastSeenUnix = p.lastSeen.Unix()
		}
		p.hmu.Unlock()
		snap.Peers = append(snap.Peers, info)
	}
	c.mu.Lock()
	for k, v := range c.reqs {
		snap.Requests = append(snap.Requests, ReqStat{Peer: k.peer, Op: k.op, Outcome: k.outcome, Count: v})
	}
	c.mu.Unlock()
	sort.Slice(snap.Requests, func(a, b int) bool {
		x, y := snap.Requests[a], snap.Requests[b]
		if x.Peer != y.Peer {
			return x.Peer < y.Peer
		}
		if x.Op != y.Op {
			return x.Op < y.Op
		}
		return x.Outcome < y.Outcome
	})
	return snap
}
