package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"ssp/internal/check"
	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// matrixRef is the reference output of fig8-paper or fig2-paper: every
// cell's stat vector, the figure drivers' rows and (fig8) the slice sizes of
// each kernel's adaptation.
type matrixRef struct {
	Cells      map[string]cellStats `json:"cells"`
	Figures    json.RawMessage      `json:"figures"`
	SliceSizes map[string][]int     `json:"slice_sizes,omitempty"`
}

// matrixSetups is how many times a run sets the kernels up; setup_s is the
// median.
const matrixSetups = 3

func matrixKeys(fig8 bool) []exp.RunKey {
	if fig8 {
		return exp.Fig8Keys()
	}
	return exp.Fig2Keys()
}

// matrixRun is one untraced pass: a cold suite set up, the cells simulated
// with RunAll, then the figure drivers.
type matrixRun struct {
	setup, sim, wall, cpu time.Duration
	results               map[exp.RunKey]*sim.Result
	cellMS                []float64 // per-cell simulate time (Suite.Progress)
	busy                  time.Duration
	pool                  sim.PoolStats
	sizes                 map[string][]int
	figures               any
}

// setupSuite builds and profiles every paper kernel, and adapts it when
// fig8 is set, on workers goroutines.
func setupSuite(ctx context.Context, s *exp.Suite, fig8 bool) error {
	benches := exp.PaperBenchmarks()
	errs := make([]error, len(benches))
	parallel(len(benches), func(i int) {
		if _, _, _, err := s.Workload(ctx, benches[i]); err != nil {
			errs[i] = err
			return
		}
		if fig8 {
			_, errs[i] = s.Report(benches[i], exp.VarSSP)
		}
	})
	return errors.Join(errs...)
}

func newSuite() *exp.Suite {
	s := exp.NewSuite(exp.ScalePaper)
	s.Workers = workers
	return s
}

func matrixRep(ctx context.Context, fig8 bool) (*matrixRun, error) {
	s := newSuite()
	run := &matrixRun{results: make(map[exp.RunKey]*sim.Result)}
	var mu sync.Mutex
	s.Progress = func(_ exp.RunKey, _ *sim.Result, wall time.Duration) {
		mu.Lock()
		run.cellMS = append(run.cellMS, float64(wall)/1e6)
		run.busy += wall
		mu.Unlock()
	}
	cpu0, t0 := cpuTime(), time.Now()
	if err := setupSuite(ctx, s, fig8); err != nil {
		return nil, err
	}
	t1 := time.Now()
	keys := matrixKeys(fig8)
	if err := s.RunAllContext(ctx, keys, workers); err != nil {
		return nil, err
	}
	t2 := time.Now()
	var err error
	if fig8 {
		var f struct {
			Fig8  []exp.Fig8Row
			Fig9  []exp.Fig9Row
			Fig10 []exp.Fig10Row
		}
		if f.Fig8, err = s.Figure8(); err == nil {
			if f.Fig9, err = s.Figure9(); err == nil {
				f.Fig10, err = s.Figure10()
			}
		}
		run.figures = f
	} else {
		var f struct{ Fig2 []exp.Fig2Row }
		f.Fig2, err = s.Figure2()
		run.figures = f
	}
	if err != nil {
		return nil, err
	}
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	run.setup, run.sim = t1.Sub(t0), t2.Sub(t1)
	for _, k := range keys {
		// Cache hits: RunAll simulated every cell.
		if run.results[k], err = s.RunContext(ctx, k.Bench, k.Model, k.Variant); err != nil {
			return nil, err
		}
	}
	if fig8 {
		run.sizes = make(map[string][]int)
		for _, b := range exp.PaperBenchmarks() {
			rep, err := s.Report(b, exp.VarSSP)
			if err != nil {
				return nil, err
			}
			run.sizes[b] = sliceSizes(rep)
		}
	}
	run.pool = s.PoolStats()
	return run, nil
}

func sliceSizes(rep *ssp.Report) []int {
	sizes := make([]int, len(rep.Slices))
	for i, sl := range rep.Slices {
		sizes[i] = sl.Size
	}
	return sizes
}

func (run *matrixRun) toRef() (*matrixRef, error) {
	figs, err := json.Marshal(run.figures)
	if err != nil {
		return nil, err
	}
	ref := &matrixRef{Cells: make(map[string]cellStats), Figures: figs, SliceSizes: run.sizes}
	for k, res := range run.results {
		ref.Cells[k.String()] = statsOf(res)
	}
	return ref, nil
}

// checkMatrix is the output-identity gate: every cell, the figure rows and
// the slice sizes must equal the reference exactly.
func checkMatrix(r *report, run *matrixRun, ref *matrixRef, fig8 bool) {
	for _, k := range matrixKeys(fig8) {
		want, ok := ref.Cells[k.String()]
		r.check(ok && statsOf(run.results[k]) == want, "%s: stats differ from the reference", k)
	}
	r.check(sameJSON(run.figures, ref.Figures), "figure driver rows differ from the reference")
	if fig8 {
		r.check(sameJSON(run.sizes, ref.SliceSizes), "slice sizes differ from the reference")
	}
}

func runMatrix(ctx context.Context, o options, r *report, fig8 bool) error {
	if o.writeRef {
		run, err := matrixRep(ctx, fig8)
		if err != nil {
			return err
		}
		ref, err := run.toRef()
		if err != nil {
			return err
		}
		return writeRef(o, ref)
	}
	var ref matrixRef
	if err := readRef(o, &ref); err != nil {
		return err
	}
	if o.trace {
		return traceMatrix(ctx, o, r, &ref, fig8)
	}

	// Untraced: as many cold passes as fit in the measuring time (at least
	// one), then extra set-ups until there are matrixSetups of them.
	var runs []*matrixRun
	var walls, cpus, setups, sims []time.Duration
	var cellMS, mcyc []float64
	start := time.Now()
	for {
		run, err := matrixRep(ctx, fig8)
		if err != nil {
			r.check(false, "matrix pass: %v", err)
			break
		}
		checkMatrix(r, run, &ref, fig8)
		runs = append(runs, run)
		walls = append(walls, run.wall)
		cpus = append(cpus, run.cpu)
		setups = append(setups, run.setup)
		sims = append(sims, run.sim)
		cellMS = append(cellMS, run.cellMS...)
		mcyc = append(mcyc, float64(totalCycles(run.results))/run.sim.Seconds()/1e6)
		if time.Since(start)+run.wall > time.Duration(o.seconds)*time.Second {
			break
		}
	}
	if len(runs) == 0 {
		return nil
	}
	for len(setups) < matrixSetups {
		s := newSuite()
		t0 := time.Now()
		if err := setupSuite(ctx, s, fig8); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	r.printf("passes: wall_s %s; cpu_s %s; setup_s %s", fmtSecs(walls), fmtSecs(cpus), fmtSecs(setups))
	what := "build+profile of 7 kernels"
	if fig8 {
		what = "build+profile+adapt of 7 kernels"
	}
	n := len(runs)
	r.set("wall_s", median(secs(walls)), n, "cold suite: set-up, RunAll of the cells, figure drivers")
	r.set("cpu_s", median(secs(cpus)), n, "process CPU over the same pass")
	r.set("setup_s", median(secs(setups)), len(setups), what)
	r.set("op_p50_ms", 1e3*median(secs(sims)), n, "RunAll of the cells (simulate phase of a pass)")
	r.setDist("cell_p50_ms", "cell_tail_ms", cellMS, "cell simulate time")
	r.set("sim_mcyc_per_s", median(mcyc), n, "simulated cycles / simulate-phase wall")
	r.setProcess()
	setMatrixCounters(r, runs[0].results, runs[0].sizes, fig8)
	setPoolShares(r, runs[0])
	return nil
}

func totalCycles(results map[exp.RunKey]*sim.Result) int64 {
	var c int64
	for _, res := range results {
		c += res.Cycles
	}
	return c
}

// setPoolShares records the suite's worker idle share and machine reuse.
func setPoolShares(r *report, run *matrixRun) {
	idle := 1 - run.busy.Seconds()/(float64(workers)*run.sim.Seconds())
	r.set("exp.worker_idle_share", idle, len(run.cellMS), "1 - Σ cell busy / (workers × simulate-phase wall)")
	r.set("exp.pool_reuse_share", ratio(float64(run.pool.Hits), float64(run.pool.Gets)), int(run.pool.Gets), "PoolStats Hits/Gets")
}

// setMatrixCounters records the exact work counters and modelled speedups,
// all derived from the cells' stat vectors.
func setMatrixCounters(r *report, results map[exp.RunKey]*sim.Result, sizes map[string][]int, fig8 bool) {
	var cyc, ffCyc, ff, spec, main, spawns, ignored int64
	var acc, l1, miss, pfi, pfu uint64
	for _, res := range results {
		cyc += res.Cycles
		ffCyc += res.FastForwardedCycles
		ff += res.FastForwards
		spec += res.SpecInstrs
		main += res.MainInstrs
		spawns += res.Spawns
		ignored += res.SpawnsIgnored
		acc += res.Hier.Totals.Accesses
		l1 += res.Hier.Totals.Hits[0][0]
		miss += res.Hier.Totals.MissCycles
		pfi += res.Hier.PrefetchIssued
		pfu += res.Hier.PrefetchUseful
	}
	n := len(results)
	const exact = "exact, Σ over cells"
	r.set("sim.cycles", float64(cyc), n, exact)
	r.set("sim.stepped_cycles", float64(cyc-ffCyc), n, exact+"; Cycles - FastForwardedCycles")
	r.set("sim.ff_jumps", float64(ff), n, exact)
	r.set("sim.skip_share", ratio(float64(ffCyc), float64(cyc)), n, "exact; fast-forwarded / all cycles")
	r.set("sim.spec_per_main", ratio(float64(spec), float64(main)), n, "exact; speculative / main instructions")
	r.set("sim.spawn_drop_share", ratio(float64(ignored), float64(spawns+ignored)), n, "exact; SpawnsIgnored / spawn requests")
	r.set("mem.accesses", float64(acc), n, "modelled, "+exact)
	r.set("mem.l1_hit_share", ratio(float64(l1), float64(acc)), n, "modelled, exact")
	r.set("mem.miss_cycles", float64(miss), n, "modelled, "+exact)
	r.set("mem.prefetch_useful_share", ratio(float64(pfu), float64(pfi)), n, "modelled, exact; PrefetchUseful / PrefetchIssued")
	if !fig8 {
		return
	}
	setSliceCounters(r, sizes, "the 7 adapted kernels")
	var io, ooo []float64
	for _, b := range exp.PaperBenchmarks() {
		cycles := func(m sim.Model, v exp.Variant) float64 {
			return float64(results[exp.RunKey{Bench: b, Model: m, Variant: v}].Cycles)
		}
		io = append(io, cycles(sim.InOrder, exp.VarBase)/cycles(sim.InOrder, exp.VarSSP))
		ooo = append(ooo, cycles(sim.OOO, exp.VarBase)/cycles(sim.OOO, exp.VarSSP))
	}
	const model = "modelled, exact; synthetic Itanium substitute (DESIGN §2), not validated against hardware"
	r.set("ssp_speedup_io", exp.Mean(io), len(io), "mean base/ssp cycles; paper: 1.87 (+87%) in-order; "+model)
	r.set("ssp_speedup_ooo", exp.Mean(ooo), len(ooo), "mean base/ssp cycles; paper: +5% over OOO; "+model)
}

// setSliceCounters records the exact slice portfolio counters of a set of
// adaptations.
func setSliceCounters(r *report, sizes map[string][]int, what string) {
	var slices, instrs int
	for _, sz := range sizes {
		slices += len(sz)
		for _, s := range sz {
			instrs += s
		}
	}
	r.set("ssp.slices", float64(slices), len(sizes), "exact, Σ over "+what)
	r.set("ssp.slice_instrs", float64(instrs), len(sizes), "exact, Σ slice body sizes over "+what)
}

// prepared is one kernel taken through the tool chain by the traced run.
type prepared struct {
	want  uint64
	del   []int
	dps   map[exp.Variant]*decode.Program
	sizes []int
}

// prepareTraced builds, profiles, ranks, adapts (fig8), safety-checks,
// links, predecodes and chain-compiles one kernel, a span around each call.
func prepareTraced(ctx context.Context, s *exp.Suite, bench string, fig8 bool, tr *tracer) (*prepared, error) {
	root := tr.begin("exp.prepare", bench, 0)
	defer tr.finish(root)
	spec, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	p := &prepared{dps: make(map[exp.Variant]*decode.Program)}
	var orig *ir.Program
	tr.do("workloads.build", bench, root, func() { orig, p.want = spec.Build(spec.Scale) })
	var prof *profile.Profile
	tr.do("profile.collect", bench, root, func() { prof, err = profile.CollectContext(ctx, orig, s.MachineConfig(sim.InOrder)) })
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", bench, err)
	}
	opt := ssp.DefaultOptions()
	tr.do("ssp.rank", bench, root, func() { p.del = ssp.RankTargets(orig, prof, opt) })
	progs := []*ir.Program{orig}
	variants := []exp.Variant{exp.VarBase}
	if fig8 {
		var adapted *ir.Program
		var rep *ssp.Report
		tr.do("ssp.adapt", bench, root, func() { adapted, rep, err = ssp.Adapt(orig, prof, opt, bench) })
		if err != nil {
			return nil, fmt.Errorf("%s: adapt: %w", bench, err)
		}
		var safety *ssp.SafetyReport
		tr.do("ssp.safety", bench, root, func() {
			safety = ssp.AnalyzeSafety(adapted, s.MachineConfig(sim.InOrder).MaxSpecInstrs)
		})
		if err := safety.Err(); err != nil {
			return nil, fmt.Errorf("%s: safety: %w", bench, err)
		}
		p.sizes = sliceSizes(rep)
		progs = append(progs, adapted)
		variants = append(variants, exp.VarSSP)
	}
	for i, prog := range progs {
		id := bench + "/" + string(variants[i])
		var img *ir.Image
		tr.do("ir.link", id, root, func() { img, err = ir.Link(prog) })
		if err != nil {
			return nil, fmt.Errorf("%s: link: %w", id, err)
		}
		var dp *decode.Program
		tr.do("decode.predecode", id, root, func() { dp = sim.Predecode(img) })
		tr.do("threaded.compile", id, root, func() { sim.ThreadedProgram(dp) })
		p.dps[variants[i]] = dp
	}
	return p, nil
}

// tracedCell is one cell simulated by the traced run.
type tracedCell struct {
	res   *sim.Result
	simNS int64
}

// runTracedCell simulates one cell on a pooled machine configured like the
// suite's, then checks the answer and conservation.
func runTracedCell(ctx context.Context, s *exp.Suite, pool *sim.Pool, k exp.RunKey, p *prepared, tr *tracer) (*tracedCell, error) {
	id := tr.begin("exp.cell", k.String(), 0)
	defer tr.finish(id)
	cfg := s.MachineConfig(k.Model)
	image := exp.VarBase
	switch k.Variant {
	case exp.VarPerfMem:
		cfg.Mem.PerfectMemory = true
	case exp.VarPerfDel:
		cfg.Mem.PerfectDelinquent = true
		cfg.Mem.DelinquentIDs = mem.NewIDSet(p.del...)
	default:
		image = k.Variant
	}
	m := pool.Get(cfg, p.dps[image])
	sid := tr.begin("sim.run", k.String(), id)
	t0 := time.Now()
	res, err := m.RunContext(ctx)
	simNS := time.Since(t0).Nanoseconds()
	tr.finish(sid)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k, err)
	}
	if res.TimedOut {
		return nil, fmt.Errorf("%s: watchdog expired", k)
	}
	if got := m.Mem.Load(workloads.ResultAddr); got != p.want {
		return nil, fmt.Errorf("%s: checksum %d, want %d", k, got, p.want)
	}
	pool.Put(m)
	tr.do("check.conservation", k.String(), id, func() { err = check.Conservation(res) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k, err)
	}
	return &tracedCell{res: res, simNS: simNS}, nil
}

// traceMatrix runs one untraced pass (the overhead baseline and the
// reference for the traced cells), then the traced pass, and records the
// per-layer metrics.
func traceMatrix(ctx context.Context, o options, r *report, ref *matrixRef, fig8 bool) error {
	run, err := matrixRep(ctx, fig8)
	if err != nil {
		return err
	}
	checkMatrix(r, run, ref, fig8)

	tr := newTracer()
	s := newSuite()
	benches := exp.PaperBenchmarks()
	preps := make(map[string]*prepared)
	var mu sync.Mutex
	t0 := time.Now()
	errs := make([]error, len(benches))
	parallel(len(benches), func(i int) {
		p, err := prepareTraced(ctx, s, benches[i], fig8, tr)
		mu.Lock()
		preps[benches[i]], errs[i] = p, err
		mu.Unlock()
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	keys := matrixKeys(fig8)
	cells := make([]*tracedCell, len(keys))
	errs = make([]error, len(keys))
	var pool sim.Pool
	parallel(len(keys), func(i int) {
		cells[i], errs[i] = runTracedCell(ctx, s, &pool, keys[i], preps[keys[i].Bench], tr)
	})
	traced := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return err
	}

	results := make(map[exp.RunKey]*sim.Result)
	sizes := make(map[string][]int)
	for i, k := range keys {
		results[k] = cells[i].res
		r.check(statsOf(cells[i].res) == statsOf(run.results[k]), "%s: traced stats differ from the untraced run", k)
	}
	if fig8 {
		for _, b := range benches {
			sizes[b] = preps[b].sizes
		}
		r.check(sameJSON(sizes, run.sizes), "traced slice sizes differ from the untraced run")
	}

	ls := tr.layers()
	setLayerTimes(r, ls, "traced self time, Σ over spans")
	setSimBusy(r, keys, cells)
	setMatrixCounters(r, results, sizes, fig8)
	setPoolShares(r, run)
	setOverhead(r, traced, run.setup+run.sim, "set-up + simulate")
	return finishTrace(o, r, tr, ls)
}

// setSimBusy splits the traced sim.run time by engine and by thread mix.
func setSimBusy(r *report, keys []exp.RunKey, cells []*tracedCell) {
	var busy [2]int64  // by model: in-order, ooo
	var steps [2]int64 // stepped cycles by model
	var mix [2]int64   // main-only, speculative
	var counts [2][2]int
	var straggler int64
	for i, k := range keys {
		c := cells[i]
		m := 0
		if k.Model == sim.OOO {
			m = 1
		}
		busy[m] += c.simNS
		steps[m] += c.res.Cycles - c.res.FastForwardedCycles
		counts[0][m]++
		spec := 0
		if strings.HasPrefix(string(k.Variant), "ssp") {
			spec = 1
		}
		mix[spec] += c.simNS
		counts[1][spec]++
		straggler = max(straggler, c.simNS)
		if name, ok := hotCells[k.String()]; ok {
			r.set(name, float64(c.res.Cycles)/(float64(c.simNS)/1e9)/1e6, 1, "simulated cycles / traced sim.run time")
		}
	}
	r.set("sim.io.busy_s", float64(busy[0])/1e9, counts[0][0], "Σ traced sim.run, in-order cells")
	r.set("sim.ooo.busy_s", float64(busy[1])/1e9, counts[0][1], "Σ traced sim.run, OOO cells")
	r.set("sim.main.busy_s", float64(mix[0])/1e9, counts[1][0], "Σ traced sim.run, base/perfmem/perfdel cells")
	r.set("sim.spec.busy_s", float64(mix[1])/1e9, counts[1][1], "Σ traced sim.run, adapted cells")
	if steps[0] > 0 {
		r.set("sim.io.ns_per_step", float64(busy[0])/float64(steps[0]), counts[0][0], "host ns per stepped cycle")
	}
	if steps[1] > 0 {
		r.set("sim.ooo.ns_per_step", float64(busy[1])/float64(steps[1]), counts[0][1], "host ns per stepped cycle")
	}
	r.set("sim.straggler_s", float64(straggler)/1e9, len(keys), "longest single traced sim.run")
}

// hotCells are the cells the roadmap names as the matrix's slowest.
var hotCells = map[string]string{
	"em3d/ooo/ssp":        "sim.cell.em3d.ooo.ssp.mcyc_per_s",
	"health/in-order/ssp": "sim.cell.health.io.ssp.mcyc_per_s",
	"vpr/in-order/ssp":    "sim.cell.vpr.io.ssp.mcyc_per_s",
	"vpr/ooo/ssp":         "sim.cell.vpr.ooo.ssp.mcyc_per_s",
}

// setOverhead records the tracing overhead: the traced pass against the
// untraced one over the same work.
func setOverhead(r *report, traced, untraced time.Duration, what string) {
	r.set("trace.overhead_share", traced.Seconds()/untraced.Seconds()-1, 2,
		fmt.Sprintf("traced %.3fs vs untraced %.3fs (%s)", traced.Seconds(), untraced.Seconds(), what))
}

// finishTrace prints the self-time table and writes the span dump.
func finishTrace(o options, r *report, tr *tracer, ls map[string]*layerTime) error {
	var b strings.Builder
	printLayers(&b, ls)
	r.printf("per-layer self time (traced run):\n%s", strings.TrimRight(b.String(), "\n"))
	path, err := tr.write(outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err != nil {
		return err
	}
	r.printf("spans written to %s", path)
	return nil
}
