package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/queue"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

// node is one in-process coordd: the same store, journal, hint log,
// cluster and service wiring cmd/coordd builds from its default flags,
// served over a loopback listener.
type node struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	st     *store.Store
	jl     *queue.Journal
	hl     *hints.Log
	cl     *cluster.Cluster
	served chan error
}

// nodeDirs are one node's durable directories.
type nodeDirs struct{ store, queue string }

// bootNode opens dirs and starts a daemon on ln with coordd's default
// configuration. peers lists every cluster member's address (ln's
// included); nil boots a standalone daemon. A non-nil tracer installs
// the timing hooks on the engine, the store and journal filesystems, and
// the peer transport.
func bootNode(dirs nodeDirs, ln net.Listener, peers []string, tr *tracer) (*node, error) {
	n := &node{url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var storeFS, journalFS store.FS
	var wrap func(string, service.RunFunc) service.RunFunc
	var transport http.RoundTripper
	if tr != nil {
		storeFS = tr.fs("store")
		journalFS = tr.fs("queue")
		wrap = tr.wrapEngine
		transport = tr.transport()
	}
	var err error
	n.st, err = store.Open(dirs.store, store.Options{
		MaxBytes:      1 << 30,
		Logf:          log.Printf,
		ProbeInterval: 10 * time.Second,
		FS:            storeFS,
	})
	if err != nil {
		return nil, err
	}
	n.jl, err = queue.OpenJournal(dirs.queue, queue.JournalOptions{Logf: log.Printf, FS: journalFS})
	if err != nil {
		n.st.Close()
		return nil, err
	}
	if peers != nil {
		n.cl, err = cluster.New(cluster.Options{
			Self:      ln.Addr().String(),
			Peers:     peers,
			Factor:    2,
			Timeout:   500 * time.Millisecond,
			Logf:      log.Printf,
			Transport: transport,
		})
		if err == nil {
			n.hl, err = hints.Open(filepath.Join(dirs.queue, "hints"), hints.Options{Logf: log.Printf, MaxBytes: 64 << 20})
		}
		if err != nil {
			n.jl.Close()
			n.st.Close()
			return nil, err
		}
	}
	cfg := service.Config{
		Workers:           2,
		QueueDepth:        64,
		InteractiveWeight: 1,
		CacheSize:         1024,
		JobTimeout:        5 * time.Minute,
		Store:             n.st,
		Journal:           n.jl,
		SweepRetention:    256,
		JobRetention:      4096,
		WatchdogInterval:  5 * time.Second,
		WatchdogGrace:     30 * time.Second,
		StealInterval:     time.Second,
		RepairInterval:    5 * time.Second,
		ProbeInterval:     time.Second,
		ProbeMisses:       3,
		WrapEngine:        wrap,
	}
	if n.cl != nil {
		cfg.Cluster = n.cl
		cfg.Hints = n.hl
	}
	n.srv = service.New(cfg)
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(hc *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s/healthz did not answer within 30s", url)
}

// stop drains the daemon the way coordd does on SIGTERM, waits for its
// HTTP server to exit, and closes its durable tiers.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.srv.Drain(ctx); err != nil {
		log.Printf("coordperf: drain forced: %v", err)
	}
	if err := n.hs.Shutdown(ctx); err != nil {
		_ = n.hs.Close()
	}
	<-n.served
	if n.hl != nil {
		n.hl.Close()
	}
	n.jl.Close()
	n.st.Close()
}

// fleet is a set of nodes booted together; a standalone daemon is a
// fleet of one.
type fleet []*node

// bootFleet boots one node per dirs entry, clustered when there is more
// than one, and returns once every node answers /healthz.
func bootFleet(hc *http.Client, dirs []nodeDirs, tr *tracer) (fleet, error) {
	lns := make([]net.Listener, len(dirs))
	addrs := make([]string, len(dirs))
	for i := range dirs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var peers []string
	if len(dirs) > 1 {
		peers = addrs
	}
	var f fleet
	for i, d := range dirs {
		n, err := bootNode(d, lns[i], peers, tr)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.stop()
			return nil, err
		}
		f = append(f, n)
	}
	for _, n := range f {
		if err := waitHealthy(hc, n.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f fleet) stop() {
	for _, n := range f {
		n.stop()
	}
}

// engineRuns sums coordd_engine_runs_total over the fleet.
func (f fleet) engineRuns() int64 {
	var total int64
	for _, n := range f {
		total += n.srv.Metrics().EngineRuns.Load()
	}
	return total
}
