// Command coordperf is coordd's benchmark. It boots coordd in-process
// (service.New with the configuration coordd's default flags produce),
// drives it over loopback HTTP from one load-generating process with at
// most GOMAXPROCS connections per daemon, checks every answer against
// the paper's exact formulas and against earlier answers for the same
// key, and prints the metrics of one workload.
//
//	coordperf --workload hot-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no hook
// installed. With --trace 1 it installs timing hooks on the daemon's
// injection points (service.Config.WrapEngine, the store and journal
// filesystems, the cluster transport), times direct calls to the layers
// without a hook, and prints the per-layer metrics. The second-to-last
// output line is a full report; the last is the result object.
// --workload all runs every workload in turn, each printing its two lines.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"coordattack/internal/service"
)

// endToEnd are the metrics a --trace 0 run prints on its result line.
var endToEndNames = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_tail_ms", "heap_live_mb"}

// layerMetric is one per-layer metric a --trace 1 run prints on its
// result line, with the end-to-end metric it should move and the
// workload where that shows.
type layerMetric struct {
	name, unit, better, moves, on string
}

var layerMetrics = []layerMetric{
	{"service.http_us.p50", "us", "lower", "mem_hit_p50_ms", "hot-read"},
	{"service.submit_us.p50", "us", "lower", "mem_hit_p50_ms", "hot-read"},
	{"service.submit_us.tail", "us", "lower", "mem_hit_tail_ms", "hot-read"},
	{"service.spec_us.p50", "us", "lower", "mem_hit_p50_ms", "hot-read"},
	{"service.cache_get_ns.p50", "ns", "lower", "mem_hit_p50_ms", "hot-read"},
	{"service.cache_hit_ratio", "ratio", "higher", "disk_hit share", "hot-read"},
	{"service.jobs_evicted", "count", "higher", "mem_hit_p50_ms", "hot-read"},
	{"service.coalesced_ratio", "ratio", "higher", "miss_p50_ms", "sweep-miss, cluster-3"},
	{"service.polls_per_job", "count", "lower", "latency_p50_ms", "all"},
	{"store.read_us.p50", "us", "lower", "disk_hit_p50_ms", "hot-read"},
	{"store.scan_ms", "ms", "lower", "setup_s", "hot-read"},
	{"store.fsyncs_per_job", "count", "lower", "miss_p50_ms", "sweep-miss"},
	{"queue.journal_appends_per_job", "count", "lower", "miss_p50_ms", "sweep-miss"},
	{"queue.sched_op_ns", "ns", "lower", "miss_p50_ms", "sweep-miss"},
	{"mc.runs_per_key", "ratio", "lower", "trials_per_s", "all"},
	{"mc.busy_share", "ratio", "lower", "trials_per_s", "sweep-miss, research-mix"},
	{"mc.fast_tps.1p", "trials/s", "higher", "trials_per_s", "sweep-miss"},
	{"mc.fast_tps.np", "trials/s", "higher", "trials_per_s", "sweep-miss"},
	{"mc.mutator_tps.1p", "trials/s", "higher", "trials_per_s", "research-mix"},
	{"mc.sampler_tps.1p", "trials/s", "higher", "trials_per_s", "research-mix"},
	{"sim.trial_ns.s-pair.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.s-pair.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.s-complete4.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.s-complete4.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.s-ring6.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.s-ring6.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-pair.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-pair.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-complete4.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-complete4.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-ring6.1p", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.trial_ns.detfull-ring6.np", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"sim.loadrun_ns", "ns", "lower", "trials_per_s", "research-mix"},
	{"run.set_load_ns", "ns", "lower", "trials_per_s", "research-mix"},
	{"run.subset_us", "us", "lower", "trials_per_s", "research-mix"},
	{"run.loss_us", "us", "lower", "trials_per_s", "research-mix"},
	{"rng.seedpage_ns_per_trial", "ns", "lower", "trials_per_s", "sweep-miss"},
	{"causality.index_us", "us", "lower", "miss_p50_ms", "research-mix"},
	{"causality.memo_hit_ratio", "ratio", "higher", "miss_p50_ms", "research-mix"},
	{"fault.faulty_share", "ratio", "lower", "explains trials_per_s", "research-mix"},
	{"cluster.requests_per_job", "count", "lower", "throughput_rps", "cluster-3"},
	{"cluster.ping_per_s", "1/s", "lower", "throughput_rps", "cluster-3"},
	{"cluster.steals", "count", "lower", "miss_tail_ms", "cluster-3"},
	{"cluster.breaker_opens", "count", "lower", "error_rate", "cluster-3"},
	{"hints.queued", "count", "lower", "error_rate", "cluster-3"},
	{"hints.add_us", "us", "lower", "none here; guards the shared-WAL refactor", "-"},
	{"trace.overhead_pct", "%", "lower", "-", "all"},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

// options are the command line of one invocation.
type options struct {
	seed          uint64
	secs, trace   int
	root, scratch string
}

func realMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("coordperf", flag.ContinueOnError)
	var (
		o    options
		name = fl.String("workload", "", "workload: hot-read, sweep-miss, research-mix, cluster-3, or all of them in turn")
		list = fl.Bool("list", false, "print the workloads and the layer → end-to-end metric → workload map, then exit")
	)
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same requests")
	fl.IntVar(&o.secs, "seconds", 10, "length of the timed window")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fl.StringVar(&o.root, "root", ".", "repository root the benchmark was built from")
	fl.StringVar(&o.scratch, "scratch", ".bench_build/runs", "directory for the daemons' data directories and span dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "workload %-13s %s\n", w.name, w.why)
		}
		for _, m := range layerMetrics {
			fmt.Fprintf(stdout, "%-36s %-9s %-7s moves %s on %s\n", m.name, m.unit, m.better, m.moves, m.on)
		}
		return 0
	}
	var run []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			run = append(run, &workloads[i])
		}
	}
	if len(run) == 0 || o.secs < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "coordperf: need --workload (one of hot-read, sweep-miss, research-mix, cluster-3, all), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	code := 0
	for _, w := range run {
		if c := runWorkload(w, o, stdout); c != 0 {
			code = c
		}
	}
	return code
}

// runWorkload runs one workload and prints its report and result lines.
func runWorkload(w *workload, o options, stdout io.Writer) int {
	dir := filepath.Join(o.scratch, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	epoch := time.Now()
	b := &bench{
		name:    w.name,
		seed:    o.seed,
		seconds: time.Duration(o.secs) * time.Second,
		tailPct: w.tail,
		trace:   o.trace == 1,
		dir:     dir,
		epoch:   epoch,
		cl:      newClient(epoch, runtime.GOMAXPROCS(0), time.Millisecond),
		orc:     newOracle(),
		specs:   make(map[string]service.JobSpec),
		fresh:   make(map[string]bool),
	}
	defer b.cl.close()
	if b.trace {
		b.tr = newTracer(epoch)
		b.cl.tr = b.tr
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "coordperf: %s: %v\n", w.name, err)
		if b.fleet != nil {
			b.fleet.stop()
		}
		return 1
	}

	var all []metric
	var want []string
	if b.trace {
		all = append(b.layers(), b.direct()...)
		for _, m := range layerMetrics {
			want = append(want, m.name)
		}
		spans := filepath.Join(o.scratch, "..", "traces", fmt.Sprintf("%s-%d.jsonl", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err == nil {
			if err := b.tr.writeSpans(spans); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	} else {
		all = b.endToEnd()
		want = endToEndNames
	}
	all = append(all, b.extra...)
	byName := make(map[string]metric, len(all))
	for _, m := range all {
		byName[m.Name] = m
	}
	result := make(map[string]metric, len(want))
	for _, n := range want {
		m, ok := byName[n]
		if !ok {
			// A count or share of work this workload does not do.
			m = metric{Name: n, Unit: unitOf(n), Note: "no such work on this workload"}
			byName[n] = m
		}
		result[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	attempted, failed := b.counts()
	b.mu.Lock()
	fails := b.fails
	b.mu.Unlock()
	if len(fails) > 20 {
		fails = fails[:20]
	}
	report := map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.secs, "trace": o.trace,
		"env":          environment(o.root, dir),
		"metrics":      byName,
		"checks":       b.checks,
		"exact_checks": b.orc.checked,
		"failures":     fails,
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, max(attempted, 1), failed, result})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func unitOf(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// environment records what the numbers were measured on.
func environment(root, dir string) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"tmpdir_fs":  fsType(dir),
		"source":     sourceHash(root),
		"process":    "daemon(s) and load generator share one process",
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x58465342: "xfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceHash identifies the commit measured: the checkout is not a git
// repository, so it hashes the Go sources and go.mod files under root.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
