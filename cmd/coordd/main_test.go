package main

import (
	"bufio"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDaemonBadFlags(t *testing.T) {
	cases := [][]string{
		{"-bogusflag"},
		{"-workers", "0"},
		{"-queue", "-1"},
		{"-job-timeout", "0s"},
		{"-store-max-bytes", "-1"},
		{"-sweep-retention", "0"},
		{"-store-probe", "-1s"},
		{"-job-retention", "0"},
		{"-watchdog-interval", "-1s"},
		{"-watchdog-grace", "0s"},
	}
	for _, args := range cases {
		if code := run(args, io.Discard, nil); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestDaemonBadAddr(t *testing.T) {
	if code := run([]string{"-addr", "256.0.0.1:-1"}, io.Discard, nil); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

func TestDaemonBadStoreDir(t *testing.T) {
	// A -store-dir that cannot be created (path under a regular file)
	// must fail startup rather than silently running memory-only.
	blocker := t.TempDir() + "/file"
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-store-dir", blocker + "/store"}, io.Discard, nil); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}

// bootDaemon starts the daemon on an ephemeral port with the given extra
// flags and returns its base URL, the signal channel that triggers a
// drain, and the channel carrying the exit code.
func bootDaemon(t *testing.T, extra ...string) (string, chan os.Signal, chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, extra...)
	go func() { exit <- run(args, pw, stop) }()

	br := bufio.NewReader(pr)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, pr) // keep later writes from blocking
	const prefix = "coordd: listening on http://"
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected banner %q", line)
	}
	return "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix)), stop, exit
}

// shutdownDaemon SIGTERMs a booted daemon and asserts a clean exit.
func shutdownDaemon(t *testing.T, stop chan os.Signal, exit chan int) {
	t.Helper()
	stop <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonRestartPersistence is the end-to-end durability proof: a
// daemon computes a result into -store-dir, is SIGTERMed, and a fresh
// daemon over the same directory answers the identical spec as an
// immediate cache hit with coordd_engine_runs_total still zero.
func TestDaemonRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	const spec = `{"protocol": "a", "rounds": 6, "trials": 2000, "seed": 11}`

	base, stop, exit := bootDaemon(t, "-store-dir", dir)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	shutdownDaemon(t, stop, exit)

	base, stop, exit = bootDaemon(t, "-store-dir", dir)
	defer shutdownDaemon(t, stop, exit)
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hit.State != "done" || !hit.Cached {
		t.Fatalf("restart resubmission code %d state %q cached %v, want cache hit", resp.StatusCode, hit.State, hit.Cached)
	}

	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "coordd_engine_runs_total 0") {
		t.Errorf("restarted daemon ran the engine; /metrics:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "coordd_store_hits_total 1") {
		t.Errorf("/metrics missing store hit:\n%s", metrics)
	}
}

// TestDaemonAdminStore exercises the operator surface over real HTTP: a
// daemon with a store reports its health under /v1/admin/store, a
// rescan returns a clean report, and a store-less daemon 404s both.
func TestDaemonAdminStore(t *testing.T) {
	dir := t.TempDir()
	base, stop, exit := bootDaemon(t, "-store-dir", dir)
	defer shutdownDaemon(t, stop, exit)

	r, err := http.Get(base + "/v1/admin/store")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Degraded   bool              `json:"degraded"`
		Quarantine []json.RawMessage `json:"quarantine"`
	}
	if err := json.NewDecoder(r.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || health.Degraded {
		t.Errorf("admin/store code %d degraded %v, want healthy 200", r.StatusCode, health.Degraded)
	}
	if health.Quarantine == nil {
		t.Error("quarantine field absent, want [] even when empty")
	}

	r, err = http.Post(base+"/v1/admin/store/rescan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Degraded  bool `json:"degraded"`
		Recovered bool `json:"recovered"`
	}
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || rep.Degraded || rep.Recovered {
		t.Errorf("rescan code %d report %+v, want clean 200", r.StatusCode, rep)
	}

	// Without -store-dir there is nothing to administer: 404.
	base2, stop2, exit2 := bootDaemon(t)
	defer shutdownDaemon(t, stop2, exit2)
	r, err = http.Get(base2 + "/v1/admin/store")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("store-less admin/store code %d, want 404", r.StatusCode)
	}
}

// TestDaemonSmoke boots the daemon on an ephemeral port, runs the whole
// request lifecycle over real HTTP — submit, poll to completion,
// resubmit for a cache hit, healthz, metrics — and then drains it with
// a SIGTERM, asserting a clean exit.
func TestDaemonSmoke(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, pw, stop) }()

	br := bufio.NewReader(pr)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, pr) // keep later writes from blocking
	const prefix = "coordd: listening on http://"
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected banner %q", line)
	}
	base := "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"protocol": "a", "rounds": 6, "trials": 2000, "seed": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST code %d", resp.StatusCode)
	}

	deadline := time.Now().Add(15 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	// Identical resubmission: served from cache, immediately done.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"protocol": "a", "rounds": 6, "trials": 2000, "seed": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hit.State != "done" || !hit.Cached {
		t.Fatalf("resubmission code %d state %q cached %v", resp.StatusCode, hit.State, hit.Cached)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: code %d", path, r.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "coordd_cache_hits_total 1") {
			t.Errorf("/metrics missing cache hit:\n%s", body)
		}
	}

	stop <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

func TestDaemonBadClusterFlags(t *testing.T) {
	cases := [][]string{
		{"-peer-timeout", "0s"},
		{"-steal-interval", "-1s"},
		{"-advertise", "http://127.0.0.1:1"}, // -advertise without -peers
		{"-peers", "127.0.0.1:1"},            // peer set collapses to self-only
		{"-replicas", "0"},
		{"-repair-interval", "-1s"},
		{"-probe-interval", "-1s"},
		{"-probe-misses", "0"},
		{"-hint-max-bytes", "-1"},
	}
	for _, args := range cases {
		args = append([]string{"-addr", "127.0.0.1:1"}, args...)
		if code := run(args, io.Discard, nil); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

// A survivable-but-wrong ring configuration — the node's advertise
// address missing from its own -peers list — must be called out at
// boot, not discovered later from cold peer counters.
func TestDaemonClusterBootWarning(t *testing.T) {
	var buf strings.Builder
	old := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(old)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := l.Addr().String()
	l.Close()
	// bootDaemon binds :0, so the bound address can never appear in the
	// -peers list: rings built from this list exclude this node.
	_, stop, exit := bootDaemon(t, "-peers", peer)
	shutdownDaemon(t, stop, exit)
	if !strings.Contains(buf.String(), "is not in -peers") {
		t.Fatalf("boot log missing the advertise-not-in-peers warning:\n%s", buf.String())
	}
}

// A replication factor at or above the member count means every node
// holds every result — survivable, but almost never what the operator
// meant, so boot must say so.
func TestDaemonClusterDegenerateReplicasWarning(t *testing.T) {
	var buf strings.Builder
	old := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(old)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := l.Addr().String()
	l.Close()
	_, stop, exit := bootDaemon(t, "-peers", peer, "-replicas", "5")
	shutdownDaemon(t, stop, exit)
	if !strings.Contains(buf.String(), "ring members") {
		t.Fatalf("boot log missing the degenerate-replicas warning:\n%s", buf.String())
	}
}

// TestDaemonCluster boots two daemons joined as a static cluster and
// proves the headline property over the real wire: a result computed on
// node A answers the identical spec on node B as a cache hit — B's
// engine never runs.
func TestDaemonCluster(t *testing.T) {
	// Reserve two ports so each daemon can name the other at boot.
	ports := make([]string, 2)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().String()
		l.Close()
	}
	peerFlag := ports[0] + "," + ports[1]

	type node struct {
		base string
		stop chan os.Signal
		exit chan int
	}
	var nodes []node
	for _, addr := range ports {
		base, stop, exit := bootDaemon(t,
			"-addr", addr, "-peers", peerFlag, "-steal-interval", "100ms")
		nodes = append(nodes, node{base, stop, exit})
	}
	defer func() {
		for _, n := range nodes {
			shutdownDaemon(t, n.stop, n.exit)
		}
	}()

	spec := `{"protocol": "a", "rounds": 6, "trials": 2000, "seed": 7}`
	submit := func(base string) (id, state string, cached bool, code int) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID     string `json:"id"`
			State  string `json:"state"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return st.ID, st.State, st.Cached, resp.StatusCode
	}

	id, state, _, _ := submit(nodes[0].base)
	deadline := time.Now().Add(15 * time.Second)
	for state != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job on A stuck in %q", state)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(nodes[0].base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		state = st.State
	}

	// The same spec on B must settle without running B's engine: either
	// replication already landed it in B's tiers (immediate cached 200)
	// or B's worker fetches it from its owner.
	metric := func(base, name string) string {
		t.Helper()
		r, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, name+" ") {
				return strings.TrimPrefix(line, name+" ")
			}
		}
		return ""
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		id, state, _, _ := submit(nodes[1].base)
		for state != "done" {
			if time.Now().After(deadline) {
				t.Fatalf("job on B stuck in %q", state)
			}
			time.Sleep(10 * time.Millisecond)
			r, err := http.Get(nodes[1].base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
			}
			if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			state = st.State
		}
		if metric(nodes[1].base, "coordd_engine_runs_total") == "0" {
			break
		}
		t.Fatalf("B ran its engine (%s runs) despite A holding the result",
			metric(nodes[1].base, "coordd_engine_runs_total"))
	}

	// Both admin endpoints answer and healthz reports a healthy cluster.
	for _, n := range nodes {
		r, err := http.Get(n.base + "/v1/admin/cluster")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s/v1/admin/cluster: code %d", n.base, r.StatusCode)
		}
		hz, err := http.Get(n.base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Cluster string `json:"cluster"`
		}
		if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		hz.Body.Close()
		if h.Cluster != "ok" {
			t.Errorf("%s healthz cluster = %q, want ok", n.base, h.Cluster)
		}
	}
}
