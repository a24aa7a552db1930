// Command perfbench is the repository's benchmark. It runs one named
// workload end to end through the entry points users call (exp.Suite and
// the figure drivers, an in-process serve.Server over loopback HTTP,
// tune.Tuner), checks every output against a reference, and prints each
// metric with its unit and sample count. With -trace 1 it instead sends the
// same work through the layers' public functions with a span around each
// call, and prints per-layer self times, exact work counters and the
// tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig8-paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers is the simulation and serving concurrency: the benchmark host has
// two cores, so the suite, the tuner and the server each get two workers.
const workers = 2

// options are the command-line parameters of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	writeRef bool
}

const (
	// refDir holds the reference outputs the output-identity gate compares
	// against, and outDir receives the span dumps of traced runs; both are
	// relative to the repository root the benchmark runs from.
	refDir = "perfbench/ref"
	outDir = ".bench_build/perfbench"
)

// runner runs one workload and fills its report.
type runner func(ctx context.Context, o options, r *report) error

var runners = map[string]runner{
	"fig8-paper":  func(ctx context.Context, o options, r *report) error { return runMatrix(ctx, o, r, true) },
	"fig2-paper":  func(ctx context.Context, o options, r *report) error { return runMatrix(ctx, o, r, false) },
	"serve-mixed": runServe,
	"tune-paper":  runTune,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig8-paper, fig2-paper, serve-mixed or tune-paper")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (drives serve-mixed's sources and request order only)")
	flag.IntVar(&o.seconds, "seconds", 30, "measuring time of the run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&o.writeRef, "write-ref", false, "write the reference outputs of this workload instead of checking them")
	flag.Parse()
	o.trace = trace == 1
	run, ok := runners[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fig8-paper|fig2-paper|serve-mixed|tune-paper, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	r := newReport()
	if err := run(context.Background(), o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.writeRef {
		fmt.Fprintf(os.Stderr, "perfbench: wrote the %s reference outputs to %s\n", o.workload, refDir)
		return
	}
	r.print(os.Stdout, o)
}

// Metric kinds: end-to-end metrics form the result line of an untraced run
// and per-layer metrics that of a traced run; headline metrics are
// workload-specific end-to-end figures printed in the table only.
const (
	endToEnd = iota
	perLayer
	headline
)

// metricDef is one catalog entry; BENCHMARK.json lists the end-to-end and
// per-layer entries with the same names, units and directions.
type metricDef struct {
	name, unit, better string
	kind               int
}

var catalog = []metricDef{
	{"wall_s", "s", "lower", endToEnd},
	{"cpu_s", "s", "lower", endToEnd},
	{"setup_s", "s", "lower", endToEnd},
	{"peak_rss_mib", "MiB", "lower", endToEnd},
	{"op_p50_ms", "ms", "lower", endToEnd},

	{"op_tail_ms", "ms", "lower", headline},
	{"cell_p50_ms", "ms", "lower", headline},
	{"cell_tail_ms", "ms", "lower", headline},
	{"fail_frac", "share", "lower", headline},
	{"sim_mcyc_per_s", "Mcyc/s", "higher", headline},
	{"ssp_speedup_io", "x", "higher", headline},
	{"ssp_speedup_ooo", "x", "higher", headline},
	{"tuned_speedup", "x", "higher", headline},
	{"serve_p50_ms", "ms", "lower", headline},
	{"serve_p99_ms", "ms", "lower", headline},
	{"serve_max_rate_jps", "jobs/s", "higher", headline},

	{"workloads.build_s", "s", "lower", perLayer},
	{"profile.collect_s", "s", "lower", perLayer},
	{"ssp.rank_s", "s", "lower", perLayer},
	{"ssp.adapt_s", "s", "lower", perLayer},
	{"ssp.safety_s", "s", "lower", perLayer},
	{"ssp.slices", "count", "higher", perLayer},
	{"ssp.slice_instrs", "count", "lower", perLayer},
	{"ir.parse_s", "s", "lower", perLayer},
	{"ir.link_s", "s", "lower", perLayer},
	{"decode.predecode_s", "s", "lower", perLayer},
	{"threaded.compile_s", "s", "lower", perLayer},
	{"sim.io.busy_s", "s", "lower", perLayer},
	{"sim.ooo.busy_s", "s", "lower", perLayer},
	{"sim.spec.busy_s", "s", "lower", perLayer},
	{"sim.main.busy_s", "s", "lower", perLayer},
	{"sim.io.ns_per_step", "ns", "lower", perLayer},
	{"sim.ooo.ns_per_step", "ns", "lower", perLayer},
	{"sim.straggler_s", "s", "lower", perLayer},
	{"sim.cell.em3d.ooo.ssp.mcyc_per_s", "Mcyc/s", "higher", perLayer},
	{"sim.cell.health.io.ssp.mcyc_per_s", "Mcyc/s", "higher", perLayer},
	{"sim.cell.vpr.io.ssp.mcyc_per_s", "Mcyc/s", "higher", perLayer},
	{"sim.cell.vpr.ooo.ssp.mcyc_per_s", "Mcyc/s", "higher", perLayer},
	{"sim.cycles", "count", "lower", perLayer},
	{"sim.stepped_cycles", "count", "lower", perLayer},
	{"sim.ff_jumps", "count", "lower", perLayer},
	{"sim.skip_share", "share", "higher", perLayer},
	{"sim.spec_per_main", "ratio", "lower", perLayer},
	{"sim.spawn_drop_share", "share", "lower", perLayer},
	{"mem.accesses", "count", "lower", perLayer},
	{"mem.l1_hit_share", "share", "higher", perLayer},
	{"mem.miss_cycles", "cycles", "lower", perLayer},
	{"mem.prefetch_useful_share", "share", "higher", perLayer},
	{"exp.worker_idle_share", "share", "lower", perLayer},
	{"exp.pool_reuse_share", "share", "higher", perLayer},
	{"check.conservation_s", "s", "lower", perLayer},
	{"serve.hit_ms_p50", "ms", "lower", perLayer},
	{"serve.http_overhead_ms", "ms", "lower", perLayer},
	{"serve.miss_ms_p50", "ms", "lower", perLayer},
	{"serve.miss_ms_tail", "ms", "lower", perLayer},
	{"serve.hit_share", "share", "higher", perLayer},
	{"serve.cells", "count", "lower", perLayer},
	{"serve.rss_kib_per_unique", "KiB", "lower", perLayer},
	{"serve.gen_late_ms", "ms", "lower", perLayer},
	{"serve.failures", "count", "lower", perLayer},
	{"serve.rejected", "count", "lower", perLayer},
	{"serve.unsafe", "count", "lower", perLayer},
	{"tune.search_s", "s", "lower", perLayer},
	{"tune.round_s", "s", "lower", perLayer},
	{"tune.rounds", "count", "lower", perLayer},
	{"tune.candidates", "count", "lower", perLayer},
	{"tune.converged", "count", "higher", perLayer},
	{"trace.overhead_share", "share", "lower", perLayer},
}

// value is one measured metric: its number, how many samples it summarizes,
// and a note (percentile level, reference figure, "exact").
type value struct {
	v    float64
	n    int
	note string
}

// report collects one run's metrics and correctness accounting.
type report struct {
	mu        sync.Mutex
	values    map[string]value
	attempted int
	failed    int
	problems  []string
	lines     []string // free-form tables printed before the metrics
}

func newReport() *report { return &report{values: make(map[string]value)} }

func (r *report) set(name string, v float64, n int, note string) {
	r.values[name] = value{v, n, note}
}

// check counts one attempted operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]jsonUnit `json:"metrics"`
}

type jsonUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the tables, every metric with unit and sample count, and the
// result line carrying the end-to-end (untraced) or per-layer (traced)
// metrics. A per-layer metric that does not apply to the workload reads 0
// and is marked n/a in the table.
func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), r.attempted, "failed or wrong operations / attempted")
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := result{Metrics: make(map[string]jsonUnit)}
	fmt.Fprintf(w, "%-36s %16s %-7s %7s  %s\n", "metric", "value", "unit", "n", "note")
	for _, d := range catalog {
		v, ok := r.values[d.name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			r.check(false, "%s is not a finite number", d.name)
			v.v = 0
		}
		if d.kind == want {
			res.Metrics[d.name] = jsonUnit{v.v, d.unit}
		}
		switch {
		case ok:
			fmt.Fprintf(w, "%-36s %16.6g %-7s %7d  %s\n", d.name, v.v, d.unit, v.n, v.note)
		case d.kind == want:
			fmt.Fprintf(w, "%-36s %16s %-7s %7s  %s\n", d.name, "n/a", d.unit, "-", "does not apply to this workload (reported as 0)")
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	if r.attempted == 0 {
		r.check(false, "no operation completed")
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		// Every value is finite by now and every key a string.
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// setDist records a latency distribution (milliseconds) as its median and
// tail percentile under the given names.
func (r *report) setDist(p50Name, tailName string, ms []float64, what string) {
	if len(ms) == 0 {
		return
	}
	s := sortedCopy(ms)
	r.set(p50Name, quantile(s, 0.5), len(s), fmt.Sprintf("median %s; %d beyond", what, beyond(len(s), 0.5)))
	if tailName == "" {
		return
	}
	if v, lvl, ok := tail(s); ok {
		r.set(tailName, v, len(s), fmt.Sprintf("p%.2f %s (highest percentile with %d beyond)", 100*lvl, what, minBeyond))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSKiB is the process's peak resident set size so far.
func maxRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// setProcess records peak RSS, which every workload reports the same way.
func (r *report) setProcess() {
	r.set("peak_rss_mib", float64(maxRSSKiB())/1024, 1, "process max RSS")
}

// parallel runs f(0..n-1) on workers goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// secs converts durations to seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// fmtSecs lists durations in seconds for the table.
func fmtSecs(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	return strings.Join(parts, ", ")
}

// ratio is a/b, or 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
