package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/tune"
	"ssp/internal/workloads"
)

// tuneBenches are searched in order, in-order model, quick grid, paper
// scale: re-profiling rand.2p surfaces its second region, and mcf.multi's
// rounds oscillate.
var tuneBenches = []string{"rand.2p", "mcf.multi"}

// tuneSetups is the minimum number of set-ups behind setup_s.
const tuneSetups = 3

// tuneRef is tune-paper's reference output: both searches' full results,
// every candidate trajectory included.
type tuneRef struct {
	Results []*tune.Result `json:"results"`
}

// roundEvent is one Tuner.Progress line: a candidate finished a round.
type roundEvent struct {
	at    time.Time
	key   string // bench/model label
	round int
}

// cellEvent is one Suite.Progress call: a suite cell finished simulating.
type cellEvent struct {
	at   time.Time
	key  exp.RunKey
	wall time.Duration
}

// tuneRun is one pass: a cold suite, both kernels set up, both searches.
type tuneRun struct {
	setup, wall, cpu time.Duration
	searches         []time.Duration
	results          []*tune.Result
	rounds           []roundEvent
	cells            []cellEvent
	searchSpans      map[string]int // bench → tune.search span id (traced)
}

// tuneRep runs one pass; with a tracer it records set-up and search spans.
func tuneRep(ctx context.Context, tr *tracer) (*tuneRun, error) {
	s := newSuite()
	tn := tune.New(s)
	run := &tuneRun{searchSpans: make(map[string]int)}
	var mu sync.Mutex
	tn.Progress = func(format string, args ...any) {
		at := time.Now()
		line := fmt.Sprintf(format, args...)
		i := strings.Index(line, " round ")
		var n int
		if i < 0 {
			return
		}
		if _, err := fmt.Sscanf(line[i:], " round %d:", &n); err != nil {
			return
		}
		mu.Lock()
		run.rounds = append(run.rounds, roundEvent{at, line[:i], n})
		mu.Unlock()
	}
	s.Progress = func(k exp.RunKey, _ *sim.Result, wall time.Duration) {
		at := time.Now()
		mu.Lock()
		run.cells = append(run.cells, cellEvent{at, k, wall})
		mu.Unlock()
	}
	cpu0, t0 := cpuTime(), time.Now()
	errs := make([]error, len(tuneBenches))
	parallel(len(tuneBenches), func(i int) {
		tr.do("exp.workload", tuneBenches[i], 0, func() { _, _, _, errs[i] = s.Workload(ctx, tuneBenches[i]) })
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	run.setup = time.Since(t0)
	for _, b := range tuneBenches {
		t := time.Now()
		run.searchSpans[b] = tr.begin("tune.search", b, 0)
		res, err := tn.Tune(ctx, b, sim.InOrder, tune.Params{}, tune.QuickGrid())
		tr.finish(run.searchSpans[b])
		if err != nil {
			return nil, err
		}
		run.searches = append(run.searches, time.Since(t))
		run.results = append(run.results, res)
	}
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	return run, nil
}

// roundSeconds returns the time between consecutive rounds of one
// candidate (rounds 1 and up; round 0 has no predecessor to time from).
func (run *tuneRun) roundSeconds() []float64 {
	last := make(map[string]roundEvent)
	evs := append([]roundEvent(nil), run.rounds...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	var out []float64
	for _, e := range evs {
		if p, ok := last[e.key]; ok && e.round == p.round+1 {
			out = append(out, e.at.Sub(p.at).Seconds())
		}
		last[e.key] = e
	}
	return out
}

func checkTune(r *report, run *tuneRun, ref *tuneRef) {
	for i, b := range tuneBenches {
		ok := i < len(ref.Results) && i < len(run.results) && sameJSON(run.results[i], ref.Results[i])
		r.check(ok, "%s: tune result (trajectories) differs from the reference", b)
	}
}

// setTuneCounters records the exact search counters and the modelled
// tuned speedup.
func setTuneCounters(r *report, results []*tune.Result) {
	var rounds, cands, conv int
	var best []float64
	for _, res := range results {
		best = append(best, res.Best.Best)
		for _, c := range res.Candidates {
			cands++
			rounds += len(c.Rounds)
			if c.Converged {
				conv++
			}
		}
	}
	r.set("tune.rounds", float64(rounds), cands, "exact, Σ trajectory lengths")
	r.set("tune.candidates", float64(cands), len(results), "exact")
	r.set("tune.converged", float64(conv), cands, "exact")
	r.set("tuned_speedup", exp.GeoMean(best), len(best),
		"modelled, exact; geomean best speedup of "+strings.Join(tuneBenches, ", ")+" (in-order, quick grid)")
}

func runTune(ctx context.Context, o options, r *report) error {
	var ref tuneRef
	if o.writeRef {
		run, err := tuneRep(ctx, nil)
		if err != nil {
			return err
		}
		return writeRef(o, tuneRef{Results: run.results})
	}
	if err := readRef(o, &ref); err != nil {
		return err
	}
	if o.trace {
		return traceTune(ctx, o, r, &ref)
	}
	var runs []*tuneRun
	var walls, cpus, setups []time.Duration
	var rounds []float64
	start := time.Now()
	for {
		run, err := tuneRep(ctx, nil)
		if err != nil {
			r.check(false, "tune pass: %v", err)
			break
		}
		checkTune(r, run, &ref)
		runs = append(runs, run)
		walls = append(walls, run.wall)
		cpus = append(cpus, run.cpu)
		setups = append(setups, run.setup)
		rounds = append(rounds, run.roundSeconds()...)
		if time.Since(start)+run.wall > time.Duration(o.seconds)*time.Second {
			break
		}
	}
	if len(runs) == 0 {
		return nil
	}
	for len(setups) < tuneSetups {
		s := newSuite()
		t0 := time.Now()
		errs := make([]error, len(tuneBenches))
		parallel(len(tuneBenches), func(i int) { _, _, _, errs[i] = s.Workload(ctx, tuneBenches[i]) })
		if err := errors.Join(errs...); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	r.printf("passes: wall_s %s; cpu_s %s; setup_s %s", fmtSecs(walls), fmtSecs(cpus), fmtSecs(setups))
	n := len(runs)
	r.set("wall_s", median(secs(walls)), n, "cold suite: Workload of both kernels, then both searches")
	r.set("cpu_s", median(secs(cpus)), n, "process CPU over the same pass")
	r.set("setup_s", median(secs(setups)), len(setups), "Suite.Workload of "+strings.Join(tuneBenches, ", "))
	roundMS := make([]float64, len(rounds))
	for i, s := range rounds {
		roundMS[i] = s * 1e3
	}
	r.setDist("op_p50_ms", "op_tail_ms", roundMS, "tune round (re-rank, re-adapt, simulate)")
	r.set("tune.round_s", median(rounds), len(rounds), "median time between consecutive rounds of a candidate")
	r.setProcess()
	setTuneCounters(r, runs[0].results)
	return nil
}

// traceTune runs one untraced pass, a traced pass (spans from the suite's
// and tuner's progress callbacks), and a shadow set-up through the layers'
// public functions that splits set-up into build and profile.
func traceTune(ctx context.Context, o options, r *report, ref *tuneRef) error {
	base, err := tuneRep(ctx, nil)
	if err != nil {
		return err
	}
	checkTune(r, base, ref)
	tr := newTracer()
	run, err := tuneRep(ctx, tr)
	if err != nil {
		return err
	}
	checkTune(r, run, ref)
	// Rounds and cells become children of their search's span.
	evs := append([]roundEvent(nil), run.rounds...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	last := make(map[string]roundEvent)
	for _, e := range evs {
		if p, ok := last[e.key]; ok && e.round == p.round+1 {
			bench := e.key[:strings.Index(e.key, "/")]
			tr.add("tune.round", e.key, run.searchSpans[bench], p.at, e.at)
		}
		last[e.key] = e
	}
	for _, c := range run.cells {
		tr.add("exp.cell", c.key.String(), run.searchSpans[c.key.Bench], c.at.Add(-c.wall), c.at)
	}
	// Shadow set-up: the work Suite.Workload does, one layer at a time.
	cfg := newSuite().MachineConfig(sim.InOrder)
	for _, b := range tuneBenches {
		spec, err := workloads.ByName(b)
		if err != nil {
			return err
		}
		root := tr.begin("shadow.setup", b, 0)
		var p *profile.Profile
		var prog *ir.Program
		tr.do("workloads.build", b, root, func() { prog, _ = spec.Build(spec.Scale) })
		tr.do("profile.collect", b, root, func() { p, err = profile.CollectContext(ctx, prog, cfg) })
		tr.finish(root)
		if err != nil || p == nil {
			return fmt.Errorf("%s: shadow profile: %v", b, err)
		}
	}

	ls := tr.layers()
	setLayerTimes(r, ls, "traced self time (shadow set-up through the public functions)")
	var search float64
	for _, d := range run.searches {
		search += d.Seconds()
	}
	r.set("tune.search_s", search, len(run.searches), "Σ Tuner.Tune wall over both searches")
	rounds := run.roundSeconds()
	r.set("tune.round_s", median(rounds), len(rounds), "median time between consecutive rounds of a candidate")
	var mainBusy, specBusy, ioBusy int64
	var nMain, nSpec int
	for _, c := range run.cells {
		ioBusy += c.wall.Nanoseconds()
		if c.key.Variant == exp.VarBase {
			mainBusy += c.wall.Nanoseconds()
			nMain++
		} else {
			specBusy += c.wall.Nanoseconds()
			nSpec++
		}
	}
	r.set("sim.io.busy_s", float64(ioBusy)/1e9, len(run.cells), "Σ Suite.Progress cell time (round images run uncached and are not narrated)")
	r.set("sim.main.busy_s", float64(mainBusy)/1e9, nMain, "Σ Suite.Progress time of baseline cells")
	r.set("sim.spec.busy_s", float64(specBusy)/1e9, nSpec, "Σ Suite.Progress time of round-0 adapted cells")
	setTuneCounters(r, run.results)
	setOverhead(r, run.wall, base.wall, "set-up + searches")
	return finishTrace(o, r, tr, ls)
}
