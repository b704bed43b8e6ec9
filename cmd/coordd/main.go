// Command coordd is the experiment-serving daemon: it accepts JSON job
// specs over HTTP, schedules them on bounded worker pools, one per
// scheduling class (interactive jobs, sweep cells), memoizes
// completed results by canonical spec key, and reports live progress
// and Prometheus metrics. See internal/service for the API.
//
// Usage:
//
//	coordd -addr 127.0.0.1:8344 -workers 4
//	curl -s localhost:8344/v1/jobs -d '{"protocol": "s:0.1", "trials": 50000}'
//	curl -s localhost:8344/v1/jobs/j000001
//	curl -s localhost:8344/metrics
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting jobs, lets
// queued and running work finish (up to -drain-timeout, after which
// in-flight jobs are cancelled and settle with partial results, and an
// engine still running one -watchdog-grace later is abandoned), and
// exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"coordattack/internal/cluster"
	"coordattack/internal/hints"
	"coordattack/internal/queue"
	"coordattack/internal/service"
	"coordattack/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// off converts a loop-interval flag, where 0 means off, to a Config
// interval, where 0 means the default and a negative value means off.
func off(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// run starts the daemon. stop overrides the OS signal channel so tests
// can trigger a drain; nil means SIGINT/SIGTERM.
func run(args []string, out io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("coordd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8344", "listen address")
		workers      = fs.Int("workers", 2, "concurrent jobs per scheduling class: interactive jobs and sweep cells each have this many workers")
		queueDepth   = fs.Int("queue", 64, "pending jobs per scheduling class; a full class answers 429, as does a sweep while this many jobs are pending in all")
		cacheSize    = fs.Int("cache", 1024, "result cache entries")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "per-job deadline")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown grace period before in-flight jobs are cancelled")
		storeDir     = fs.String("store-dir", "", "on-disk result store directory; empty = memory-only (results die with the process)")
		queueDir     = fs.String("queue-dir", "", "on-disk pending-queue journal directory; empty = accepted-but-unstarted jobs die with the process")
		storeMax     = fs.Int64("store-max-bytes", 1<<30, "result store size budget in bytes (0 = unlimited)")
		storeProbe   = fs.Duration("store-probe", 10*time.Second, "degraded-store recovery probe interval (0 = never probe; rescan still recovers)")
		sweepKeep    = fs.Int("sweep-retention", 256, "settled sweeps kept queryable before eviction")
		jobKeep      = fs.Int("job-retention", 4096, "settled jobs kept queryable before eviction")
		wdInterval   = fs.Duration("watchdog-interval", 5*time.Second, "stuck-job watchdog scan interval (0 = watchdog off)")
		wdGrace      = fs.Duration("watchdog-grace", 30*time.Second, "time past deadline with no progress before a job is declared stuck; also how long a forced drain waits before abandoning a wedged engine")
		peers        = fs.String("peers", "", "comma-separated peer base URLs forming a static cluster; empty = standalone")
		advertise    = fs.String("advertise", "", "this node's address as peers reach it (default: the listen address)")
		peerTimeout  = fs.Duration("peer-timeout", 500*time.Millisecond, "per-request timeout for peer calls")
		stealEvery   = fs.Duration("steal-interval", time.Second, "idle-node work-stealing poll interval (0 = stealing off)")
		replicas     = fs.Int("replicas", 2, "replication factor: ring members holding each result (owner + successors)")
		repairEvery  = fs.Duration("repair-interval", 5*time.Second, "anti-entropy replica repair interval (0 = repair off; needs -store-dir)")
		probeEvery   = fs.Duration("probe-interval", time.Second, "peer failure-detector heartbeat interval (0 = detector off)")
		probeMisses  = fs.Int("probe-misses", 3, "consecutive missed heartbeats before a peer is declared dead")
		hintMax      = fs.Int64("hint-max-bytes", 64<<20, "hinted-handoff log size budget in bytes; oldest hints shed past it (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *queueDepth < 1 || *cacheSize < 1 || *jobTimeout <= 0 || *drainTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "coordd: workers, queue, cache, job-timeout and drain-timeout must be positive")
		return 2
	}
	if *storeMax < 0 || *sweepKeep < 1 || *storeProbe < 0 {
		fmt.Fprintln(os.Stderr, "coordd: store-max-bytes and store-probe must be >= 0 and sweep-retention >= 1")
		return 2
	}
	if *jobKeep < 1 || *wdInterval < 0 || *wdGrace <= 0 {
		fmt.Fprintln(os.Stderr, "coordd: job-retention must be >= 1, watchdog-interval >= 0 and watchdog-grace > 0")
		return 2
	}
	if *peerTimeout <= 0 || *stealEvery < 0 {
		fmt.Fprintln(os.Stderr, "coordd: peer-timeout must be > 0 and steal-interval >= 0")
		return 2
	}
	if *replicas < 1 || *repairEvery < 0 {
		fmt.Fprintln(os.Stderr, "coordd: replicas must be >= 1 and repair-interval >= 0")
		return 2
	}
	if *probeEvery < 0 || *probeMisses < 1 || *hintMax < 0 {
		fmt.Fprintln(os.Stderr, "coordd: probe-interval and hint-max-bytes must be >= 0 and probe-misses >= 1")
		return 2
	}
	if *peers == "" && *advertise != "" {
		fmt.Fprintln(os.Stderr, "coordd: -advertise requires -peers")
		return 2
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			MaxBytes:      *storeMax,
			Logf:          log.Printf,
			ProbeInterval: *storeProbe,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer st.Close()
	}

	var jl *queue.Journal
	if *queueDir != "" {
		var err error
		jl, err = queue.OpenJournal(*queueDir, queue.JournalOptions{Logf: log.Printf})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer jl.Close()
	}

	// Listen before building the cluster: -advertise defaults to the
	// address actually bound, which only exists once the listener does
	// (tests and scripts bind :0 and scrape the chosen port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(out, "coordd: listening on http://%s\n", ln.Addr())

	var cl *cluster.Cluster
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		cl, err = cluster.New(cluster.Options{
			Self:    self,
			Peers:   peerList,
			Factor:  *replicas,
			Timeout: *peerTimeout,
			Logf:    log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if cl.Factor() == *replicas {
			fmt.Fprintf(out, "coordd: cluster self %s, peers %v, replicas %d\n", cl.Self(), cl.PeerAddrs(), cl.Factor())
		} else {
			fmt.Fprintf(out, "coordd: cluster self %s, peers %v, replicas %d (requested %d, clamped to ring size)\n",
				cl.Self(), cl.PeerAddrs(), cl.Factor(), *replicas)
		}
		if members := len(cl.PeerAddrs()) + 1; *replicas >= members {
			log.Printf("coordd: warning: -replicas %d >= %d ring members; every node replicates every "+
				"result, so each write fans out to the whole cluster and losing any node loses nothing "+
				"but costs full-cluster pushes", *replicas, members)
		}
		// Sanity-check the ring configuration. Both misconfigurations are
		// survivable (the ring still hashes, breakers contain the damage)
		// but route traffic to nobody, so say so loudly at boot instead of
		// letting the operator discover it from cold peer counters.
		selfNorm := cluster.NormalizeAddr(self)
		inPeers := false
		for _, p := range peerList {
			if cluster.NormalizeAddr(p) == selfNorm {
				inPeers = true
				break
			}
		}
		if !inPeers {
			log.Printf("coordd: warning: advertise address %s is not in -peers; "+
				"if other nodes use this -peers list their rings will not include this node", selfNorm)
		}
		listenNorm := cluster.NormalizeAddr(ln.Addr().String())
		for _, p := range peerList {
			if n := cluster.NormalizeAddr(p); n == listenNorm && n != selfNorm {
				log.Printf("coordd: warning: peer %s is this node's own listen address but -advertise is %s; "+
					"the node would dial itself for that ring member", n, selfNorm)
			}
		}
	}

	// The hinted-handoff log rides in the queue journal's directory: both
	// are small WALs recording work the node still owes someone, and a
	// node that wants crash-safe queues wants crash-safe hints too. No
	// -queue-dir means hints live in memory and die with the process —
	// the anti-entropy repair loop is then the only healer.
	var hl *hints.Log
	if cl != nil {
		hintDir := ""
		if *queueDir != "" {
			hintDir = filepath.Join(*queueDir, "hints")
		}
		hl, err = hints.Open(hintDir, hints.Options{
			Logf:     log.Printf,
			MaxBytes: *hintMax,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer hl.Close()
		if hintDir != "" {
			fmt.Fprintf(out, "coordd: hint log %s (%d hints replayed)\n", hintDir, hl.Stats().Replayed)
		}
	}

	srv := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheSize:        *cacheSize,
		JobTimeout:       *jobTimeout,
		Store:            st,
		Journal:          jl,
		SweepRetention:   *sweepKeep,
		JobRetention:     *jobKeep,
		WatchdogInterval: off(*wdInterval),
		WatchdogGrace:    *wdGrace,
		Cluster:          cl,
		StealInterval:    off(*stealEvery),
		RepairInterval:   off(*repairEvery),
		Hints:            hl,
		ProbeInterval:    off(*probeEvery),
		ProbeMisses:      *probeMisses,
	})
	if st != nil {
		fmt.Fprintf(out, "coordd: result store %s (%d entries, budget %d bytes)\n", *storeDir, st.Len(), *storeMax)
	}
	if jl != nil {
		fmt.Fprintf(out, "coordd: queue journal %s (%d pending jobs replayed)\n", *queueDir, jl.Stats().Replayed)
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if stop == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		stop = ch
	}
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case sig := <-stop:
		fmt.Fprintf(out, "coordd: received %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain jobs before closing HTTP: watch streams end when their jobs
	// settle, which lets Shutdown finish inside the same grace period.
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(out, "coordd: drain forced after %v: in-flight jobs cancelled\n", *drainTimeout)
	}
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
	fmt.Fprintln(out, "coordd: bye")
	return 0
}
