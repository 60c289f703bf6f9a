// Command perfbench is the repository's end-to-end benchmark for RedoDB.
// It runs one named workload against the system's public APIs, verifies
// every result, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. README.md explains why
// each workload exists and which layer metric should move which end-to-end
// metric. Run it through run.sh, which builds it from the checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pmem"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spanDir  string // where the traced run writes its spans ("" = nowhere)
}

// result is what a workload hands back: its metrics in print order and the
// verification tally.
type result struct {
	metrics   []metric
	unbounded []metric // measured but not declared; printed as diagnostics
	attempted uint64
	failed    uint64
	invalid   []string // reasons the run measured nothing trustworthy
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int // samples behind a percentile or median; 0 when not one
}

func (m metric) String() string {
	if m.samples > 0 {
		return fmt.Sprintf("%-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.samples)
	}
	return fmt.Sprintf("%-34s %14.6g %s", m.name, m.value, m.unit)
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// check counts one verified outcome, failing it when err is non-nil. The
// first few failures are printed so a bad run says what went wrong.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Printf("# failure: %v\n", err)
		}
	}
}

// checkMany counts n outcomes of which fails are the failures.
func (r *result) checkMany(n int, fails []error) {
	for i := len(fails); i < n; i++ {
		r.check(nil)
	}
	for _, err := range fails {
		r.check(err)
	}
}

// errorIf returns a formatted error when cond holds, for check.
func errorIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}

func (r *result) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg config) (*result, error){
	"fill":         runFill,
	"update-read":  runUpdateRead,
	"serve-ycsb-a": runServe,
}

// latency is the persistence-instruction cost model every workload runs
// under: the Optane-calibrated model cmd/dbbench uses.
var latency = pmem.DefaultOptane

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: fill, update-read or serve-ycsb-a")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spanDir, "spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {fill|update-read|serve-ycsb-a} -seed N -seconds S -trace {0|1}\n")
		os.Exit(2)
	}
	// Load comes from this one process with at most nproc workers.
	runtime.GOMAXPROCS(runtime.NumCPU())
	pwb := emulatedPWB()
	checkLatencyModel(pwb)
	printEnv(cfg, pwb)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := res.declared(cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// printEnv writes the environment header every result starts with.
func printEnv(cfg config, pwb float64) {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s rev=%s latency=pwb:%v,fence:%v,ntstore:%v mode=direct pwb_emulated_ns=%.1f\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), sourceRev(), latency.PWB, latency.Fence, latency.NTStore, pwb)
}

// sourceRev names the code under test: the git commit when the working
// directory is a git checkout, otherwise a digest of the Go sources (the
// benchmark also runs from plain exports of the tree).
func sourceRev() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(id))
			}
			return "git:" + name
		}
		return "git:" + ref
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
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
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// emit prints one human-readable line per metric, then the result object
// as the last line.
func emit(w *os.File, res *result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(res.invalid) == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(res.metrics)),
	}
	for _, reason := range res.invalid {
		fmt.Fprintf(w, "# invalid: %s\n", reason)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "# fail_frac %.6g (%d failed of %d attempted)\n", frac, res.failed, res.attempted)
	for _, m := range res.unbounded {
		fmt.Fprintf(w, "# unbounded %s\n", m)
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(w, "# invalid: %s is %v\n", m.name, m.value)
			out.Correct = false
			m.value = 0
		}
		fmt.Fprintln(w, m)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// clock is the benchmark's monotonic time base: nanoseconds since start.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// The metrics each mode reports, in print order; BENCHMARK.json declares
// the same names. Per-layer metrics a workload never reaches (the server's
// on an embedded workload) read 0.
var endToEnd = []string{"setup_s", "ops_s", "get_p50_us", "put_p50_us", "recover_s"}

// unbounded end-to-end metrics are measured and printed on every untraced
// run but not declared: on serve-ycsb-a they spread from run to run by more
// than any bound the benchmark may set (README.md, "Spread").
var unbounded = []string{"max_rate_ops_s", "get_p99_us", "put_p99_us"}

var perLayer = [][2]string{
	{"pmem.pwbs_per_op", "count/op"}, {"pmem.pfences_per_op", "count/op"},
	{"pmem.psyncs_per_op", "count/op"}, {"pmem.ntstores_per_op", "count/op"},
	{"pmem.words_copied_per_op", "count/op"},
	{"redo.updates_per_combine", "count"}, {"redo.replays_per_update", "count/op"},
	{"redodb.grow_stall_ms", "ms"},
	{"palloc.allocs_per_op", "count/op"}, {"palloc.frees_per_op", "count/op"},
	{"detect.receipts_per_put", "count/op"}, {"detect.dedup_hits", "count"},
	{"shardeddb.coord_pwbs_per_op", "count/op"}, {"shardeddb.intents_per_put", "count/op"},
	{"shardeddb.shard_pwb_skew", "ratio"},
	{"server.service_p50_us", "us"}, {"server.service_p99_us", "us"}, {"server.share_pct", "%"},
	{"wire.encode_ns_per_frame", "ns"}, {"wire.decode_ns_per_frame", "ns"}, {"wire.bytes_per_op", "B/op"},
	{"net.residual_p50_us", "us"}, {"net.frames_per_write", "count"},
	{"runtime.allocs_per_op", "count/op"}, {"runtime.gc_cpu_frac", "ratio"},
	{"gen.late_p50_us", "us"}, {"gen.late_p99_us", "us"},
	{"bench.self_pct", "%"}, {"trace.overhead_pct", "%"},
}

// declared orders the result's metrics as the mode declares them, adding a
// zero for a per-layer metric the workload does not reach. A missing
// end-to-end metric is a bug in the workload.
func (r *result) declared(trace bool) error {
	got := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		got[m.name] = m
	}
	var out []metric
	if trace {
		for _, nu := range perLayer {
			m, ok := got[nu[0]]
			if !ok {
				m = metric{name: nu[0], unit: nu[1]}
			}
			delete(got, nu[0])
			out = append(out, m)
		}
	} else {
		for _, name := range endToEnd {
			m, ok := got[name]
			if !ok {
				return fmt.Errorf("workload reported no %s", name)
			}
			delete(got, name)
			out = append(out, m)
		}
		for _, name := range unbounded {
			if m, ok := got[name]; ok {
				delete(got, name)
				r.unbounded = append(r.unbounded, m)
			}
		}
	}
	for name := range got {
		return fmt.Errorf("workload reported undeclared metric %s", name)
	}
	r.metrics = out
	return nil
}

// The latency model is emulated by busy-waiting, and pmem calibrates its
// spin loop once per process, at the first delay, from a single
// millisecond-long probe. On a shared machine that probe lands in a slow
// stretch often enough that a third of processes emulate a write-back a
// quarter or more cheaper than the model says, which moves every
// write-path figure. A process whose emulated write-back misses the model
// by more than modelTolerance therefore re-executes itself, up to
// modelAttempts times, before measuring anything.
const (
	modelTolerance = 0.12
	modelAttempts  = 20
	attemptEnv     = "PERFBENCH_MODEL_ATTEMPT"
)

func checkLatencyModel(pwb float64) {
	want := float64(latency.PWB)
	if math.Abs(pwb-want) <= modelTolerance*want {
		return
	}
	attempt, _ := strconv.Atoi(os.Getenv(attemptEnv))
	if attempt+1 >= modelAttempts {
		fmt.Printf("# latency model: emulated pwb %.1f ns after %d attempts, model %v\n", pwb, modelAttempts, latency.PWB)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", attemptEnv, attempt+1))
	err = syscall.Exec(exe, os.Args, env)
	fmt.Fprintf(os.Stderr, "perfbench: re-exec for the latency model: %v\n", err)
}

// emulatedPWB times write-backs on a scratch pool: what one PWB of the
// latency model costs in this process, whose spin loop pmem calibrates
// once at its first delay.
func emulatedPWB() float64 {
	p := pmem.New(pmem.Config{Mode: pmem.Direct, RegionWords: pmem.WordsPerLine, Regions: 1, Latency: latency})
	r := p.Region(0)
	const n = 20_000
	best := int64(1 << 62)
	for rep := 0; rep < 5; rep++ {
		t0 := now()
		for i := 0; i < n; i++ {
			r.PWB(0)
		}
		best = min(best, now()-t0)
	}
	return float64(best) / n
}
