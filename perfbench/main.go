// Command perfbench is PAST's benchmark. It runs one workload for a
// fixed time and prints every metric by name and unit, checking every
// answer the system gives.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// lookup-cold boots a five-node PAST fleet inside this process (see
// fleet.go) and drives it over TCP from one closed-loop generator. emu-fig8 replays the paper's Figure 8
// caching experiment in-process. With --trace 0 the result holds the
// end-to-end metrics; with --trace 1 a set-up, an untraced window and a
// traced window, each half of --seconds, give the per-layer split. The
// last line of output is the result as one JSON object.
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
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are what a user sees; --trace 0 reports exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"disk_bytes_per_user_byte", "ratio"},
}

// perLayer are the single-layer metrics; --trace 1 reports exactly
// these.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"transport.rpcs_per_op", "count"},
		{"transport.rpc_us_per_op", "us"},
		{"transport.rpc_errors_per_op", "count"},
		{"pastry.hops_per_lookup", "count"},
		{"pastry.routed_share", "ratio"},
		{"pastry.hop_rpc_us_p50", "us"},
		{"pastry.join_failures", "count"},
		{"cachengine.hit_ratio", "ratio"},
		{"cachengine.evictions_per_op", "count"},
		{"logstore.fsyncs_per_insert", "count"},
		{"logstore.replicas_per_fsync", "count"},
		{"logstore.wal_bytes_per_user_byte", "ratio"},
		{"past.replicas_per_insert", "count"},
		{"past.diversions_per_insert", "count"},
		{"past.retries_per_op", "count"},
		{"store.util_end", "ratio"},
		{"memstats.allocs_per_op", "count"},
		{"memstats.alloc_bytes_per_op", "B"},
		{"memstats.gc_cycles_per_kop", "count"},
		{"trace.ops_ratio", "ratio"},
		{"traced.cpu_us_per_op", "us"},
		{"unattributed.cpu_us_per_op", "us"},
	}
	for _, l := range profLayers {
		defs = append(defs, metricDef{l + ".cpu_us_per_op", "us"})
	}
	for _, l := range profLayers {
		defs = append(defs, metricDef{l + ".allocs_per_op", "count"})
	}
	return defs
}()

var workloads = []string{"lookup-cold", "emu-fig8"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	window   time.Duration // each timed window: seconds, or half of it when tracing
	trace    bool
	build    string // build directory: spans are written here
	work     string // this run's working directory, removed at exit
	out      io.Writer
}

// outcome is a run's verdict and measurements.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int64
	samples           int // latency samples behind lat_p50_us/lat_p99_us
	firstErr          error
}

func (o *outcome) add(st *opStats) {
	o.attempted += st.ops
	o.failed += st.failed
	o.note(st.firstErr)
}

func (o *outcome) note(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	traceFlag := fl.Int("trace", 0, "1: report the per-layer split from a traced run; 0: the end-to-end metrics")
	build := fl.String("build", ".bench_build", "directory for fleet data, logs and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	work, err := filepath.Abs(filepath.Join(*build, fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, build: *build, work: work, out: stdout}
	// A traced run times an untraced and a traced window, so each gets
	// half the run's seconds.
	o.window = o.seconds
	if o.trace {
		o.window /= 2
	}

	// A SIGINT or SIGTERM stops the run at once; the fleet runs in
	// this process, so it stops with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan int, 1)
	go func() { done <- measure(o) }()
	select {
	case code := <-done:
		return code
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "perfbench: %v; stopping\n", s)
		os.RemoveAll(work)
		return 1
	}
}

func measure(o options) int {
	fmt.Fprintf(o.out, "# perfbench workload=%s seed=%d seconds=%d trace=%v clients=%d\n",
		o.workload, o.seed, int(o.seconds/time.Second), o.trace, clientsFor(o.workload))
	fmt.Fprintf(o.out, "# provenance: commit=%s source=%s go=%s nproc=%d\n",
		commit(), sourceDigest(), runtime.Version(), runtime.NumCPU())

	var res *outcome
	var err error
	if o.workload == "emu-fig8" {
		res, err = runEmu(o)
	} else {
		res, err = runLive(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return report(o, res)
}

func clientsFor(workload string) int {
	if workload == "emu-fig8" {
		return 1
	}
	return clients
}

// report prints the human-readable lines and the JSON result, and
// returns the exit code: non-zero when any answer was wrong.
func report(o options, res *outcome) int {
	m := res.metrics
	failRatio := perOp(float64(res.failed), res.attempted)
	client := "in the traced run (the generator shares the fleet's process)"
	if v, ok := m["client.cpu_us_per_op"]; ok {
		client = fmt.Sprintf("%.2f", v)
	}
	fmt.Fprintf(o.out, "# fail_ratio=%.6f (%d of %d failed) lat samples=%d client.cpu_us_per_op %s\n",
		failRatio, res.failed, res.attempted, res.samples, client)
	if res.firstErr != nil {
		fmt.Fprintf(o.out, "# first failure: %v\n", res.firstErr)
	}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(o.out, "# %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range want {
		v, ok := m[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(o.out, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func writeSpanFile(o options, logs []*spanLog) error {
	path := filepath.Join(o.build, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, logs); err != nil {
		return err
	}
	n := 0
	for _, l := range logs {
		n += len(l.spans)
	}
	fmt.Fprintf(o.out, "# spans: %d written to %s\n", n, path)
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// commit names the checked-out commit, or "none" outside a git work
// tree (the benchmark also runs from exported source trees).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so a result names the code it measured even without git.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
