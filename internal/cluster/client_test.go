package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coordattack/internal/queue"
)

// fakePeer is a minimal peer-protocol server: a key→body map plus a
// steal grant.
type fakePeer struct {
	results map[string][]byte
	grant   []queue.Record
	gets    atomic.Int64
}

func (f *fakePeer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+ResultsPathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodHead {
			f.gets.Add(1)
		}
		body, ok := f.results[r.PathValue("key")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	})
	mux.HandleFunc("POST "+StealPath, func(w http.ResponseWriter, r *http.Request) {
		var req StealRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(StealResponse{Jobs: f.grant})
	})
	mux.HandleFunc("GET "+JobsPathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if _, ok := f.results[r.PathValue("key")]; !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]bool{"known": true})
	})
	return mux
}

func reqCount(snap Snapshot, op, outcome string) int64 {
	var n int64
	for _, r := range snap.Requests {
		if r.Op == op && r.Outcome == outcome {
			n += r.Count
		}
	}
	return n
}

func TestFetchHitMissAndCounters(t *testing.T) {
	fp := &fakePeer{results: map[string][]byte{"abc123": []byte(`{"x":1}`)}}
	srv := httptest.NewServer(fp.handler())
	defer srv.Close()

	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	body, found, err := c.FetchFrom(context.Background(), srv.URL, "abc123")
	if err != nil || !found || string(body) != `{"x":1}` {
		t.Fatalf("hit: body=%q found=%v err=%v", body, found, err)
	}
	_, found, err = c.FetchFrom(context.Background(), srv.URL, "nope")
	if err != nil || found {
		t.Fatalf("miss should be clean: found=%v err=%v", found, err)
	}
	snap := c.Snapshot()
	if reqCount(snap, "results", "hit") != 1 || reqCount(snap, "results", "miss") != 1 {
		t.Fatalf("counter mismatch: %+v", snap.Requests)
	}
	if snap.Peers[0].Breaker != StateClosed {
		t.Fatalf("breaker should be closed after hit+miss, got %s", snap.Peers[0].Breaker)
	}
}

func TestFetchResultConsultsReplicaSet(t *testing.T) {
	fp := &fakePeer{results: map[string][]byte{}}
	srv := httptest.NewServer(fp.handler())
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	// Find one key owned by the peer and one owned by self. With two
	// members and the default factor 2 both are in every replica set.
	var peerKey, selfKey string
	for _, k := range randomKeys(200, 21) {
		if c.Owner(k) == c.Self() {
			selfKey = k
		} else {
			peerKey = k
		}
		if peerKey != "" && selfKey != "" {
			break
		}
	}
	if peerKey == "" || selfKey == "" {
		t.Fatal("could not find keys on both arcs")
	}
	fp.results[peerKey] = []byte("peer-bytes")
	if body, from, ok := c.FetchResult(context.Background(), peerKey); !ok || string(body) != "peer-bytes" || from != NormalizeAddr(srv.URL) {
		t.Fatalf("owner-routed fetch failed: %q from %q %v", body, from, ok)
	}
	// A self-owned key falls through to its successor replica: the lookup
	// must dial the peer (it may hold the copy after a local disk loss)
	// and miss cleanly when it does not.
	if _, _, ok := c.FetchResult(context.Background(), selfKey); ok {
		t.Fatal("successor without the body must be a clean miss")
	}
	if got := fp.gets.Load(); got != 2 {
		t.Fatalf("peer saw %d GETs, want 2 (self-owned key must fall through to its successor)", got)
	}
	// Once the successor holds the body, the fall-through finds it.
	fp.results[selfKey] = []byte("successor-bytes")
	if body, _, ok := c.FetchResult(context.Background(), selfKey); !ok || string(body) != "successor-bytes" {
		t.Fatalf("successor fetch failed: %q %v", body, ok)
	}
}

func TestBreakerOpensOnDeadPeerAndShortCircuits(t *testing.T) {
	// A listener that is immediately closed: every dial fails fast.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.URL
	srv.Close()

	c, err := New(Options{
		Self:             "http://self.invalid:1",
		Peers:            []string{dead},
		Timeout:          200 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, found, err := c.FetchFrom(context.Background(), dead, "k"); found || err == nil {
			t.Fatalf("dead peer fetch %d should error", i)
		}
	}
	snap := c.Snapshot()
	if snap.Peers[0].Breaker != StateOpen {
		t.Fatalf("breaker after 3 failures = %s, want open", snap.Peers[0].Breaker)
	}
	if !c.PeerDown(dead) {
		t.Fatal("PeerDown should report the open breaker")
	}
	// Short circuit: no more dials, outcome "open" counted.
	if _, _, err := c.FetchFrom(context.Background(), dead, "k"); err == nil {
		t.Fatal("open breaker should refuse")
	}
	if _, err := c.StealFrom(context.Background(), dead, 1); err == nil {
		t.Fatal("open breaker should refuse steal too")
	}
	snap = c.Snapshot()
	if reqCount(snap, "results", "open") != 1 || reqCount(snap, "steal", "open") != 1 {
		t.Fatalf("short-circuit counters wrong: %+v", snap.Requests)
	}
	if reqCount(snap, "results", "error") != 3 {
		t.Fatalf("error count = %d, want 3", reqCount(snap, "results", "error"))
	}
}

// TestBreakerDefaultThresholdIsThree: a cluster built with zero breaker
// options opens a peer's breaker on the third consecutive failure, as
// Options documents — not on the first.
func TestBreakerDefaultThresholdIsThree(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.URL
	srv.Close()

	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{dead}, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := c.FetchFrom(context.Background(), dead, "k"); err == nil {
			t.Fatalf("dead peer fetch %d should error", i)
		}
		want := StateClosed
		if i == 3 {
			want = StateOpen
		}
		if got := c.Snapshot().Peers[0].Breaker; got != want {
			t.Fatalf("breaker after %d failures = %s, want %s", i, got, want)
		}
	}
}

func TestStealFromGrants(t *testing.T) {
	fp := &fakePeer{grant: []queue.Record{{Key: "k1", Class: "interactive", Spec: json.RawMessage(`{"protocol":"a"}`)}}}
	srv := httptest.NewServer(fp.handler())
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.StealFrom(context.Background(), srv.URL, 2)
	if err != nil || len(jobs) != 1 || jobs[0].Key != "k1" {
		t.Fatalf("steal: jobs=%+v err=%v", jobs, err)
	}
	fp.grant = nil
	jobs, err = c.StealFrom(context.Background(), srv.URL, 2)
	if err != nil || len(jobs) != 0 {
		t.Fatalf("empty grant: jobs=%+v err=%v", jobs, err)
	}
	snap := c.Snapshot()
	if reqCount(snap, "steal", "hit") != 1 || reqCount(snap, "steal", "miss") != 1 {
		t.Fatalf("steal counters wrong: %+v", snap.Requests)
	}
}

// TestStealGrantMixedVersions: a grant is the victim's accept record on
// the wire. One from this build decodes, unchanged, into the five-field
// struct an older thief reads, and an older victim's grant, without op
// or at, decodes into records with neither, which the thief adopts with
// the time it adopts them.
func TestStealGrantMixedVersions(t *testing.T) {
	rec := queue.Record{
		Op: queue.OpAccept, Key: "k1", Flow: "sweep-7", Class: "sweep", Priority: 5,
		Spec: json.RawMessage(`{"protocol":"a"}`), At: 1_700_000_000_000_000_000,
	}
	wire, err := json.Marshal(StealResponse{Jobs: []queue.Record{rec}})
	if err != nil {
		t.Fatal(err)
	}
	var older struct {
		Jobs []struct {
			Key      string          `json:"key"`
			Flow     string          `json:"flow,omitempty"`
			Class    string          `json:"class,omitempty"`
			Priority int             `json:"priority,omitempty"`
			Spec     json.RawMessage `json:"spec"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(wire, &older); err != nil || len(older.Jobs) != 1 {
		t.Fatalf("older thief decoding %s: %+v, %v", wire, older, err)
	}
	if j := older.Jobs[0]; j.Key != rec.Key || j.Flow != rec.Flow || j.Class != rec.Class ||
		j.Priority != rec.Priority || string(j.Spec) != string(rec.Spec) {
		t.Fatalf("older thief read %+v from %s", j, wire)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+StealPath, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"jobs": [{"key": "k1", "flow": "sweep-7", "class": "sweep", "priority": 5, "spec": {"protocol":"a"}}]}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := c.StealFrom(context.Background(), srv.URL, 1)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("older grant: jobs=%+v err=%v", jobs, err)
	}
	if j := jobs[0]; j.Op != "" || j.At != 0 || j.Key != rec.Key || j.Flow != rec.Flow ||
		j.Class != rec.Class || j.Priority != rec.Priority || string(j.Spec) != string(rec.Spec) {
		t.Fatalf("older grant decoded as %+v", j)
	}
}

func TestHasResultAndKnowsJob(t *testing.T) {
	fp := &fakePeer{results: map[string][]byte{"held": []byte("x")}}
	srv := httptest.NewServer(fp.handler())
	defer srv.Close()
	c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if has, err := c.HasResult(context.Background(), srv.URL, "held"); err != nil || !has {
		t.Fatalf("HasResult(held) = %v, %v; want true", has, err)
	}
	if has, err := c.HasResult(context.Background(), srv.URL, "absent"); err != nil || has {
		t.Fatalf("HasResult(absent) = %v, %v; want clean false", has, err)
	}
	if known, err := c.KnowsJob(context.Background(), srv.URL, "held"); err != nil || !known {
		t.Fatalf("KnowsJob(held) = %v, %v; want true", known, err)
	}
	if known, err := c.KnowsJob(context.Background(), srv.URL, "absent"); err != nil || known {
		t.Fatalf("KnowsJob(absent) = %v, %v; want clean false", known, err)
	}
	snap := c.Snapshot()
	if reqCount(snap, "probe", "hit") != 1 || reqCount(snap, "probe", "miss") != 1 {
		t.Fatalf("probe counters wrong: %+v", snap.Requests)
	}
	if reqCount(snap, "jobs", "hit") != 1 || reqCount(snap, "jobs", "miss") != 1 {
		t.Fatalf("jobs counters wrong: %+v", snap.Requests)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Self: "", Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("empty self must be rejected")
	}
	if _, err := New(Options{Self: "http://a:1", Peers: []string{"a:1", "http://a:1/"}}); err == nil {
		t.Fatal("peer list collapsing to self-only must be rejected")
	}
	c, err := New(Options{Self: "a:1", Peers: []string{"http://a:1", "b:2", "b:2/"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PeerAddrs(); len(got) != 1 || got[0] != "http://b:2" {
		t.Fatalf("normalized peers = %v, want [http://b:2]", got)
	}
	if c.Self() != "http://a:1" {
		t.Fatalf("self = %s", c.Self())
	}
	// Two spellings of one peer are one ring member: the replication
	// factor clamps against the two distinct members, not three entries.
	c, err = New(Options{Self: "a:1", Peers: []string{"a:1", "b:1", "http://b:1/"}, Factor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Factor() != 2 || c.Snapshot().Factor != 2 {
		t.Fatalf("factor = %d (snapshot %d) on a two-member ring, want 2", c.Factor(), c.Snapshot().Factor)
	}
}

// TestPeerCallBookkeeping pins how every peer call books what a peer
// answered: whether an error comes back, the one {op,outcome} counter
// that moves, the breaker's consecutive-failure count, and whether the
// request reached the peer at all. Each call meets seven peers: one
// that answers 200, one that answers 404, one that answers 503, a
// closed listener, a live peer whose breaker is already open (threshold
// 1, one recorded failure) — which only a ping may get through — a
// healthy peer dialed by a caller whose context is already done, which
// sends nothing and leaves the breaker alone, and a healthy peer whose
// caller gives up while the peer holds the request, which books
// cancelled and leaves the breaker alone too.
func TestPeerCallBookkeeping(t *testing.T) {
	key := strings.Repeat("ab", 32)
	calls := []struct {
		op   string
		call func(ctx context.Context, c *Cluster, addr string) error
		want [7]string // outcome against 200, 404, 503, dead, open, cancelled, gave up
	}{
		{"results", func(ctx context.Context, c *Cluster, addr string) error {
			_, _, err := c.FetchFrom(ctx, addr, key)
			return err
		}, [7]string{"hit", "miss", "error", "error", "open", "cancelled", "cancelled"}},
		{"replicate", func(ctx context.Context, c *Cluster, addr string) error {
			return c.PushTo(ctx, addr, key, []byte(`{}`))
		}, [7]string{"ok", "error", "error", "error", "open", "cancelled", "cancelled"}},
		{"probe", func(ctx context.Context, c *Cluster, addr string) error {
			_, err := c.HasResult(ctx, addr, key)
			return err
		}, [7]string{"hit", "miss", "error", "error", "open", "cancelled", "cancelled"}},
		{"steal", func(ctx context.Context, c *Cluster, addr string) error {
			_, err := c.StealFrom(ctx, addr, 1)
			return err
		}, [7]string{"miss", "error", "error", "error", "open", "cancelled", "cancelled"}},
		{"jobs", func(ctx context.Context, c *Cluster, addr string) error {
			_, err := c.KnowsJob(ctx, addr, key)
			return err
		}, [7]string{"hit", "miss", "error", "error", "open", "cancelled", "cancelled"}},
		{"ping", func(ctx context.Context, c *Cluster, addr string) error {
			_, err := c.Ping(ctx, addr, 3)
			return err
		}, [7]string{"ok", "ok", "error", "error", "ok", "cancelled", "cancelled"}},
	}
	// Every live peer answers any path with its status; a 200 carries an
	// empty steal grant, which is also a well-formed result body. A peer
	// given a held channel instead closes it once it holds the request
	// and answers nothing until the caller goes away.
	serve := func(status int, hits *atomic.Int64, held chan struct{}) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			if held != nil {
				// The server notices a departed client only once it has
				// read the request body.
				io.Copy(io.Discard, r.Body)
				close(held)
				<-r.Context().Done()
				return
			}
			w.WriteHeader(status)
			if status == http.StatusOK {
				w.Write([]byte(`{"jobs":[]}`))
			}
		}))
	}
	cases := []struct {
		name   string
		status int
	}{{"200", http.StatusOK}, {"404", http.StatusNotFound}, {"503", http.StatusServiceUnavailable}, {"dead", http.StatusOK}, {"open", http.StatusOK}, {"cancelled", http.StatusOK}, {"gave up", http.StatusOK}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cl := range calls {
		for i, cs := range cases {
			var hits atomic.Int64
			var held chan struct{}
			if cs.name == "gave up" {
				held = make(chan struct{})
			}
			srv := serve(cs.status, &hits, held)
			if cs.name == "dead" {
				srv.Close()
			}
			c, err := New(Options{
				Self:             "http://self.invalid:1",
				Peers:            []string{srv.URL},
				Timeout:          time.Second,
				BreakerThreshold: 1,
				BreakerCooldown:  time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			br := c.peers[NormalizeAddr(srv.URL)].breaker
			if cs.name == "open" {
				br.Failure()
			}
			ctx := context.Background()
			switch cs.name {
			case "cancelled":
				ctx = cancelled
			case "gave up":
				var giveUp context.CancelFunc
				ctx, giveUp = context.WithCancel(ctx)
				go func() {
					<-held
					giveUp()
				}()
			}
			want := cl.want[i]
			err = cl.call(ctx, c, srv.URL)
			srv.Close()
			label := cl.op + "/" + cs.name
			clean := want == "hit" || want == "miss" || want == "ok"
			if clean != (err == nil) {
				t.Errorf("%s: err = %v, want outcome %q", label, err, want)
			}
			if reqs := c.Snapshot().Requests; len(reqs) != 1 || reqs[0].Op != cl.op || reqs[0].Outcome != want || reqs[0].Count != 1 {
				t.Errorf("%s: counters = %+v, want one %s/%s", label, reqs, cl.op, want)
			}
			wantFails := 0
			if want == "error" || want == "open" {
				wantFails = 1
			}
			if got := br.Failures(); got != wantFails {
				t.Errorf("%s: breaker failures = %d, want %d", label, got, wantFails)
			}
			wantHits := int64(1)
			if want == "open" || cs.name == "cancelled" || cs.name == "dead" {
				wantHits = 0
			}
			if got := hits.Load(); got != wantHits {
				t.Errorf("%s: peer saw %d requests, want %d", label, got, wantHits)
			}
		}
	}

	// A half-open probe whose caller gives up mid-exchange hands its slot
	// back: the next request is admitted, not refused for a full cooldown.
	t.Run("half-open probe given up", func(t *testing.T) {
		held := make(chan struct{})
		srv := serve(http.StatusOK, new(atomic.Int64), held)
		defer srv.Close()
		clock := time.Now()
		c, err := New(Options{
			Self:             "http://self.invalid:1",
			Peers:            []string{srv.URL},
			Timeout:          time.Second,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
			now:              func() time.Time { return clock },
		})
		if err != nil {
			t.Fatal(err)
		}
		br := c.peers[NormalizeAddr(srv.URL)].breaker
		br.Failure()
		clock = clock.Add(2 * time.Hour)
		ctx, giveUp := context.WithCancel(context.Background())
		go func() {
			<-held
			giveUp()
		}()
		if _, _, err := c.FetchFrom(ctx, srv.URL, key); err == nil {
			t.Fatal("abandoned probe returned no error")
		}
		if reqs := c.Snapshot().Requests; len(reqs) != 1 || reqs[0].Outcome != "cancelled" {
			t.Errorf("counters = %+v, want one results/cancelled", reqs)
		}
		if !br.Allow() {
			t.Errorf("breaker %s with %d failures after an abandoned probe, want the next request admitted", br.State(), br.Failures())
		}
	})

	// A peer that never answers a ping is a miss: the client timeout
	// bounds the ping, and the detector books it as an error.
	t.Run("ping of a hung peer", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}))
		defer srv.Close()
		c, err := New(Options{Self: "http://self.invalid:1", Peers: []string{srv.URL}, Timeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c.PingAll(3, nil)
		if reqs := c.Snapshot().Requests; len(reqs) != 1 || reqs[0].Op != "ping" || reqs[0].Outcome != "error" {
			t.Errorf("counters = %+v, want one ping/error", reqs)
		}
		if h := c.PeerHealth(srv.URL); h != HealthSuspect {
			t.Errorf("hung peer health %q, want %q", h, HealthSuspect)
		}
	})
}
