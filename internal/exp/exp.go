// Package exp regenerates every table and figure of the paper's evaluation
// (§4): Figure 2 (perfect-memory and perfect-delinquent-load speedup
// bounds), Table 2 (slice characteristics), Figure 8 (SSP speedups on the
// in-order and OOO models), Figure 9 (where delinquent loads are satisfied),
// Figure 10 (cycle breakdowns), the §4.5 automatic-vs-hand comparison, and
// the ablations of the design choices called out in DESIGN.md.
//
// A Suite is safe for concurrent use: builds, profiles, adaptations, and
// simulations are memoized behind singleflight-style per-key cells, so
// duplicate in-flight requests coalesce onto one computation instead of
// racing or double-simulating. RunAll fans the experiment matrix out over a
// worker pool; the figure drivers use it to presimulate their cells in
// parallel before the (cheap, cache-hitting) serial table-assembly loops.
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ssp/internal/check"
	"ssp/internal/flight"
	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleTest shrinks caches and working sets so the whole suite runs
	// in seconds (unit tests, quick looks).
	ScaleTest Scale = iota
	// ScalePaper uses the Table 1 machine and working sets larger than
	// the 3MB L3, like the paper's runs.
	ScalePaper
)

// Variant names a binary/machine treatment of a benchmark.
type Variant string

const (
	VarBase     Variant = "base"
	VarSSP      Variant = "ssp"
	VarHand     Variant = "hand"
	VarPerfMem  Variant = "perfmem"
	VarPerfDel  Variant = "perfdel"
	VarNoChain  Variant = "ssp-nochain"
	VarNoRotate Variant = "ssp-norotate"
	VarNoPred   Variant = "ssp-nopred"
	VarNoSpec   Variant = "ssp-nospec"
	// VarUnroll is the chain-unrolling extension (Options.ChainUnroll=2):
	// the automated version of what the paper's hand adaptation did.
	VarUnroll Variant = "ssp-unroll2"
)

// RunKey identifies one cell of the experiment matrix: a benchmark run as a
// particular variant on a particular machine model.
type RunKey struct {
	Bench   string
	Model   sim.Model
	Variant Variant
}

func (k RunKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Bench, k.Model, k.Variant)
}

// Suite caches built programs, profiles, adaptations, and simulation results
// so the experiment drivers and benchmarks share work. The zero Suite is not
// usable; construct one with NewSuite. All methods are safe for concurrent
// use, and results are deterministic: a RunKey maps to the same *sim.Result
// no matter how many goroutines race to compute it.
type Suite struct {
	Scale Scale

	// Workers is the concurrency the figure drivers hand to RunAll.
	// NewSuite defaults it to runtime.GOMAXPROCS(0); set it to 1 for a
	// fully serial suite.
	Workers int

	// Progress, when non-nil, is called once per newly simulated cell with
	// the cell's key, its result, and the simulation's wall time. Cached
	// hits do not fire it. It may be called from many goroutines at once.
	Progress func(key RunKey, res *sim.Result, wall time.Duration)

	mu    sync.Mutex
	progs map[string]*flight.Cell[*progSet]
	decs  map[decodeKey]*flight.Cell[*decode.Program]
	runs  map[RunKey]*flight.Cell[*sim.Result]

	// Options-parameterized cells (the auto-tuner's search points). They
	// are keyed on ssp.Options.Key() — the canonical encoding of every
	// option field — never on a summary of it: two configurations that
	// differ in any knob, however minor, must not share a cell.
	optDecs map[optDecodeKey]*flight.Cell[*decode.Program]
	optRuns map[optRunKey]*flight.Cell[*sim.Result]

	// pool recycles machines across matrix cells: Machine.Reset rebinds a
	// machine to a new (config, program) while reusing its memory pages,
	// hierarchy, predictor tables, and per-thread buffers. Safe because Run
	// detaches each Result's statistics from the machine. Only machines
	// from clean completions go back (sim.Pool's discipline); a cancelled,
	// failed, or panicked run's machine is dropped instead.
	pool sim.Pool
}

// decodeKey identifies one adapted binary of the matrix: a benchmark adapted
// as a variant. Machine models are deliberately absent — the predecoded image
// is config-independent, so the in-order and OOO cells share one decode. The
// original binary's decode, which base and the perfect-memory treatments
// (they only alter the hierarchy) share, lives on the progSet instead.
type decodeKey struct {
	Bench   string
	Variant Variant
}

// optDecodeKey identifies one options-adapted, linked, predecoded binary.
// Like decodeKey, the model is absent: the image is config-independent.
type optDecodeKey struct {
	Bench  string
	OptKey string
}

// optRunKey identifies one options-parameterized simulation cell.
type optRunKey struct {
	Bench  string
	Model  sim.Model
	OptKey string
}

// progSet is one benchmark's built program, its predecoded image, its
// in-order base cell, the profile taken from that cell's run, and its
// adapted variants.
type progSet struct {
	spec workloads.Spec
	orig *ir.Program
	want uint64
	// dp is the original binary linked, predecoded and chain-compiled once:
	// the base, perfmem and perfdel cells of both models run over it.
	dp *decode.Program
	// base is the {bench, in-order, base} cell: the profiling run itself,
	// kept with its profile-only fields cleared.
	base *sim.Result
	prof *profile.Profile
	del  []int

	mu          sync.Mutex
	variants    map[Variant]*flight.Cell[variantProg]
	optVariants map[string]*flight.Cell[variantProg]
}

// variantProg pairs an adapted binary with the tool report that produced it
// (nil for the hand adaptation, which has no tool run behind it).
type variantProg struct {
	prog *ir.Program
	rep  *ssp.Report
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(s Scale) *Suite {
	return &Suite{
		Scale:   s,
		Workers: runtime.GOMAXPROCS(0),
		progs:   make(map[string]*flight.Cell[*progSet]),
		decs:    make(map[decodeKey]*flight.Cell[*decode.Program]),
		runs:    make(map[RunKey]*flight.Cell[*sim.Result]),
		optDecs: make(map[optDecodeKey]*flight.Cell[*decode.Program]),
		optRuns: make(map[optRunKey]*flight.Cell[*sim.Result]),
	}
}

// PoolStats reports the suite's machine-reuse counters.
func (s *Suite) PoolStats() sim.PoolStats { return s.pool.Stats() }

// machineConfig returns the simulator configuration for a model at the
// suite's scale.
func (s *Suite) machineConfig(model sim.Model) sim.Config {
	var c sim.Config
	if model == sim.InOrder {
		c = sim.DefaultInOrder()
	} else {
		c = sim.DefaultOOO()
	}
	if s.Scale == ScaleTest {
		c.UseTinyMem()
	}
	c.MaxCycles = 4_000_000_000
	// The matrix runs with the stall-jump timing core on: results are
	// bit-for-bit identical to per-cycle simulation (check.FastForwardEquivalence
	// gates this), and the paper-scale benchmarks spend most of their cycles
	// fully stalled, so regeneration gets several times faster for free.
	c.FastForward = true
	return c
}

func (s *Suite) scaleOf(spec workloads.Spec) int {
	if s.Scale == ScaleTest {
		return spec.TestScale
	}
	return spec.Scale
}

// prog builds (once) the benchmark, its profile, and its delinquent set.
// Concurrent callers for the same benchmark coalesce onto one build.
//
// The profile is the cache profile of the original binary run on the
// in-order model (Figure 1) — exactly the in-order base cell every figure
// divides by — so that run is made once, here, through execute (pooled
// machine, watchdog, answer checksum, conservation, Progress) with
// Config.Profile set, and its Result becomes the base cell. Profiling only
// adds an exec hook that counts; it changes no timing or statistic
// (check.FastForwardEquivalence proves the profiled run equal).
func (s *Suite) prog(ctx context.Context, bench string) (*progSet, error) {
	s.mu.Lock()
	c, ok := s.progs[bench]
	if !ok {
		c = new(flight.Cell[*progSet])
		s.progs[bench] = c
	}
	s.mu.Unlock()
	return c.Do(ctx, func(ctx context.Context) (*progSet, error) {
		spec, err := workloads.ByName(bench)
		if err != nil {
			return nil, err
		}
		orig, want := spec.Build(s.scaleOf(spec))
		img, err := ir.Link(orig)
		if err != nil {
			return nil, fmt.Errorf("%s: link: %w", bench, err)
		}
		dp := sim.Predecode(img)
		sim.ThreadedProgram(dp) // warm the chain compile (see predecoded)
		cfg := s.machineConfig(sim.InOrder)
		cfg.Profile = true
		base, err := s.execute(ctx, RunKey{bench, sim.InOrder, VarBase}, cfg, dp, want, nil, true)
		if err != nil {
			return nil, fmt.Errorf("%s: profile: %w", bench, err)
		}
		prof := profile.FromResult(orig, img, base, cfg.Mem)
		base.PCCount, base.CallEdges = nil, nil
		opt := ssp.DefaultOptions()
		return &progSet{
			spec:        spec,
			orig:        orig,
			want:        want,
			dp:          dp,
			base:        base,
			prof:        prof,
			del:         ssp.RankTargets(orig, prof, opt),
			variants:    make(map[Variant]*flight.Cell[variantProg]),
			optVariants: make(map[string]*flight.Cell[variantProg]),
		}, nil
	})
}

// variantOptions maps an adaptation variant to tool options.
func variantOptions(v Variant) (ssp.Options, bool) {
	opt := ssp.DefaultOptions()
	switch v {
	case VarSSP:
	case VarNoChain:
		opt.Chaining = false
	case VarNoRotate:
		opt.LoopRotation = false
	case VarNoPred:
		opt.CondPrediction = false
	case VarNoSpec:
		opt.SpeculativeSlicing = false
	case VarUnroll:
		opt.ChainUnroll = 2
	default:
		return opt, false
	}
	return opt, true
}

// program returns the binary and tool report for a benchmark variant,
// adapting on demand (once per variant; duplicate requests coalesce). The
// report is nil for variants no tool run produces (base, the perfect-memory
// bounds, and the hand adaptation).
func (s *Suite) program(ctx context.Context, bench string, v Variant) (*ir.Program, *ssp.Report, error) {
	ps, err := s.prog(ctx, bench)
	if err != nil {
		return nil, nil, err
	}
	switch v {
	case VarBase, VarPerfMem, VarPerfDel:
		return ps.orig, nil, nil
	}
	ps.mu.Lock()
	c, ok := ps.variants[v]
	if !ok {
		c = new(flight.Cell[variantProg])
		ps.variants[v] = c
	}
	ps.mu.Unlock()
	vp, err := c.Do(ctx, func(ctx context.Context) (variantProg, error) {
		if v == VarHand {
			p, err := handtuned.Adapt(bench, ps.orig)
			if err != nil {
				return variantProg{}, err
			}
			return variantProg{prog: p}, nil
		}
		opt, ok := variantOptions(v)
		if !ok {
			return variantProg{}, fmt.Errorf("exp: unknown variant %q", v)
		}
		p, rep, err := ssp.Adapt(ps.orig, ps.prof, opt, bench)
		if err != nil {
			return variantProg{}, fmt.Errorf("%s/%s: adapt: %w", bench, v, err)
		}
		return variantProg{prog: p, rep: rep}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vp.prog, vp.rep, nil
}

// Report returns the tool report for an adapted variant, adapting if needed.
// Variants with no tool run behind them (base, perfmem, perfdel, and the
// hand adaptation) have no report; asking for one is an error rather than a
// silent nil.
func (s *Suite) Report(bench string, v Variant) (*ssp.Report, error) {
	_, rep, err := s.program(context.Background(), bench, v)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("exp: %s/%s has no tool report (only the ssp-adapted variants produce one)", bench, v)
	}
	return rep, nil
}

// predecoded links and predecodes a benchmark variant's binary exactly once;
// every cell over that binary — both machine models, all seeds of callers —
// shares the immutable result. Duplicate in-flight requests coalesce. The
// original binary's decode (base, perfmem, perfdel) lives on the progSet.
func (s *Suite) predecoded(ctx context.Context, bench string, v Variant) (*decode.Program, error) {
	switch v {
	case VarBase, VarPerfMem, VarPerfDel:
		ps, err := s.prog(ctx, bench)
		if err != nil {
			return nil, err
		}
		return ps.dp, nil
	}
	key := decodeKey{bench, v}
	s.mu.Lock()
	c, ok := s.decs[key]
	if !ok {
		c = new(flight.Cell[*decode.Program])
		s.decs[key] = c
	}
	s.mu.Unlock()
	return c.Do(ctx, func(ctx context.Context) (*decode.Program, error) {
		p, _, err := s.program(ctx, bench, v)
		if err != nil {
			return nil, err
		}
		img, err := ir.Link(p)
		if err != nil {
			return nil, err
		}
		dp := sim.Predecode(img)
		// Warm the closure-threaded chain compile inside the coalesced
		// cell: every machine over this image shares the sidecar, so no
		// matrix cell pays the compile inside a timed run.
		sim.ThreadedProgram(dp)
		return dp, nil
	})
}

// Run simulates a benchmark variant on a model, caching and checksum-
// verifying the result. Concurrent calls with the same key coalesce onto a
// single simulation and share its result.
func (s *Suite) Run(bench string, model sim.Model, v Variant) (*sim.Result, error) {
	return s.RunContext(context.Background(), bench, model, v)
}

// RunContext is Run under a context: a cancelled simulation stops within one
// cycle-loop iteration and returns ctx.Err(). Cancellation does not poison
// the cell — the outcome is not cached (flight.Cell resets on context
// errors), coalesced waiters with live contexts retry, and a later call with
// a fresh context recomputes the cell. The abandoned machine is discarded
// rather than pooled.
func (s *Suite) RunContext(ctx context.Context, bench string, model sim.Model, v Variant) (*sim.Result, error) {
	key := RunKey{bench, model, v}
	s.mu.Lock()
	c, ok := s.runs[key]
	if !ok {
		c = new(flight.Cell[*sim.Result])
		s.runs[key] = c
	}
	s.mu.Unlock()
	return c.Do(ctx, func(ctx context.Context) (*sim.Result, error) { return s.simulate(ctx, key, nil) })
}

// RunInstrumented simulates a benchmark variant on a fresh machine with the
// given instrumentation installed (tracers, external profilers, per-cycle
// observers — anything that calls AttachExec or SetCycleHooks). The result is
// computed outside the memoization layer and never enters it: an instrumented
// rerun of a cached cell must not poison the cache (a hook can legitimately
// change what the Result carries — DisableStats empties the breakdown — and a
// per-cycle hook without bulk-skip support turns the fast-forward core off,
// changing the strategy counters), and conversely a cached hit must not
// silently skip the caller's hooks. Progress does not fire and the
// conservation layer is not applied, since instrumentation may detach the
// stats recorder that upholds it.
func (s *Suite) RunInstrumented(bench string, model sim.Model, v Variant, instrument func(*sim.Machine)) (*sim.Result, error) {
	if instrument == nil {
		return nil, fmt.Errorf("exp: RunInstrumented without an instrument function (use Run)")
	}
	return s.simulate(context.Background(), RunKey{bench, model, v}, instrument)
}

// simulate computes one cell of the matrix (no caching; Run wraps it, and
// RunInstrumented calls it directly with an instrument hook installer).
//
// Machine lifecycle: the machine goes back to the pool only after a clean
// completion — Run returned a verified, checksum-correct Result. Every other
// exit (simulation error, cancellation, watchdog, checksum mismatch, or a
// panic out of an instrumentation hook) discards it, so a poisoned machine
// can never resurface under a later cell. A panic is recovered and reported
// as the cell's error rather than unwinding into the worker pool: one bad
// hook or one simulator bug fails its own cell (and, in the serving layer,
// its own request) instead of the whole process.
func (s *Suite) simulate(ctx context.Context, key RunKey, instrument func(*sim.Machine)) (*sim.Result, error) {
	ps, err := s.prog(ctx, key.Bench)
	if err != nil {
		return nil, err
	}
	if key.Model == sim.InOrder && key.Variant == VarBase && instrument == nil {
		// The profiling run made this cell (see prog).
		return ps.base, nil
	}
	dp, err := s.predecoded(ctx, key.Bench, key.Variant)
	if err != nil {
		return nil, err
	}
	cfg := s.machineConfig(key.Model)
	switch key.Variant {
	case VarPerfMem:
		cfg.Mem.PerfectMemory = true
	case VarPerfDel:
		cfg.Mem.PerfectDelinquent = true
		cfg.Mem.DelinquentIDs = mem.NewIDSet(ps.del...)
	}
	return s.execute(ctx, key, cfg, dp, ps.want, instrument, true)
}

// execute runs one simulation under the suite's full machine-lifecycle and
// validation discipline (see simulate's doc comment): pooled machine, panic
// containment, watchdog and answer-checksum gates, conservation check and —
// when narrate is set — Progress narration for uninstrumented runs.
func (s *Suite) execute(ctx context.Context, key RunKey, cfg sim.Config, dp *decode.Program, want uint64, instrument func(*sim.Machine), narrate bool) (res *sim.Result, err error) {
	m := s.pool.Get(cfg, dp)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: panic during simulation: %v", key, r)
		}
	}()
	if instrument != nil {
		instrument(m)
	}
	start := time.Now()
	res, err = m.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("%s: watchdog expired", key)
	}
	if got := m.Mem.Load(workloads.ResultAddr); got != want {
		return nil, fmt.Errorf("%s: checksum %d, want %d", key, got, want)
	}
	// Clean completion: the Result is detached from the machine, so the
	// machine can go back to the pool before the result is validated or
	// cached.
	s.pool.Put(m)
	if instrument != nil {
		// Instrumented runs feed the caller, not the figures: the hooks may
		// have detached the stats recorder the conservation layer checks, and
		// Progress only narrates fresh matrix cells.
		return res, nil
	}
	// Every result that feeds a figure must be internally consistent; a
	// violation here means a simulator accounting bug, not a bad variant.
	if err := check.Conservation(res); err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if narrate && s.Progress != nil {
		s.Progress(key, res, time.Since(start))
	}
	return res, nil
}

// optVariant returns a short display tag for an options-parameterized cell:
// "ssp@" plus the first 8 hex digits of the canonical option key's SHA-256.
// It appears in RunKey-shaped progress lines and error messages; cache maps
// always use the full Options.Key().
func optVariant(opt ssp.Options) Variant {
	sum := sha256.Sum256([]byte(opt.Key()))
	return Variant("ssp@" + hex.EncodeToString(sum[:4]))
}

// ProgramOptions adapts a benchmark with an arbitrary option set, memoized
// on the canonical option key. It is the options-parameterized analogue of
// program(bench, VarSSP): the tuner's search points go through here so
// repeated probes of the same configuration coalesce.
func (s *Suite) ProgramOptions(ctx context.Context, bench string, opt ssp.Options) (*ir.Program, *ssp.Report, error) {
	ps, err := s.prog(ctx, bench)
	if err != nil {
		return nil, nil, err
	}
	key := opt.Key()
	ps.mu.Lock()
	c, ok := ps.optVariants[key]
	if !ok {
		c = new(flight.Cell[variantProg])
		ps.optVariants[key] = c
	}
	ps.mu.Unlock()
	vp, err := c.Do(ctx, func(ctx context.Context) (variantProg, error) {
		p, rep, err := ssp.Adapt(ps.orig, ps.prof, opt, bench)
		if err != nil {
			return variantProg{}, fmt.Errorf("%s/%s: adapt: %w", bench, optVariant(opt), err)
		}
		return variantProg{prog: p, rep: rep}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vp.prog, vp.rep, nil
}

// predecodedOptions links and predecodes an options-adapted binary once per
// (bench, canonical option key); both machine models share the image.
func (s *Suite) predecodedOptions(ctx context.Context, bench string, opt ssp.Options) (*decode.Program, error) {
	key := optDecodeKey{bench, opt.Key()}
	s.mu.Lock()
	c, ok := s.optDecs[key]
	if !ok {
		c = new(flight.Cell[*decode.Program])
		s.optDecs[key] = c
	}
	s.mu.Unlock()
	return c.Do(ctx, func(ctx context.Context) (*decode.Program, error) {
		p, _, err := s.ProgramOptions(ctx, bench, opt)
		if err != nil {
			return nil, err
		}
		img, err := ir.Link(p)
		if err != nil {
			return nil, err
		}
		dp := sim.Predecode(img)
		sim.ThreadedProgram(dp) // warm the chain compile (see predecoded)
		return dp, nil
	})
}

// RunOptions simulates a benchmark adapted with an arbitrary option set,
// with the same caching, coalescing, and validation as RunContext. The cell
// key embeds Options.Key(), so configurations differing in any single knob
// get distinct cells.
func (s *Suite) RunOptions(ctx context.Context, bench string, model sim.Model, opt ssp.Options) (*sim.Result, error) {
	key := optRunKey{bench, model, opt.Key()}
	s.mu.Lock()
	c, ok := s.optRuns[key]
	if !ok {
		c = new(flight.Cell[*sim.Result])
		s.optRuns[key] = c
	}
	s.mu.Unlock()
	return c.Do(ctx, func(ctx context.Context) (*sim.Result, error) {
		ps, err := s.prog(ctx, bench)
		if err != nil {
			return nil, err
		}
		dp, err := s.predecodedOptions(ctx, bench, opt)
		if err != nil {
			return nil, err
		}
		rk := RunKey{bench, model, optVariant(opt)}
		return s.execute(ctx, rk, s.machineConfig(model), dp, ps.want, nil, true)
	})
}

// Workload exposes a benchmark's built program, its expected final-answer
// checksum, and the offline profile (building and profiling on first use).
// The profiling run is the benchmark's in-order base cell: the first
// Workload (or any first use of the benchmark) simulates that cell — firing
// Progress for it — and a later Run of {bench, in-order, base} returns it
// without simulating again. The returned structures are shared with the
// suite's caches — callers must treat them as read-only. The closed-loop
// tuner re-adapts from these.
func (s *Suite) Workload(ctx context.Context, bench string) (*ir.Program, uint64, *profile.Profile, error) {
	ps, err := s.prog(ctx, bench)
	if err != nil {
		return nil, 0, nil, err
	}
	return ps.orig, ps.want, ps.prof, nil
}

// MachineConfig exposes the simulator configuration the suite's cells run
// with at its scale, so out-of-suite simulations (the tuner's re-profiling
// rounds) are comparable with cached cells.
func (s *Suite) MachineConfig(model sim.Model) sim.Config { return s.machineConfig(model) }

// Simulate runs an arbitrary program under the suite's machine-lifecycle and
// validation discipline (pooled machine, watchdog, answer checksum against
// want, conservation) without entering any cache: the program is the
// caller's own, so the suite has no key for it. Progress does not fire. The
// closed-loop tuner runs its re-adapted round images through here.
func (s *Suite) Simulate(ctx context.Context, label string, model sim.Model, p *ir.Program, want uint64) (*sim.Result, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, fmt.Errorf("%s: link: %w", label, err)
	}
	rk := RunKey{label, model, "external"}
	return s.execute(ctx, rk, s.machineConfig(model), sim.Predecode(img), want, nil, false)
}

// Speedup returns cycles(reference)/cycles(treatment).
func (s *Suite) Speedup(bench string, refModel sim.Model, refVar Variant, model sim.Model, v Variant) (float64, error) {
	ref, err := s.Run(bench, refModel, refVar)
	if err != nil {
		return 0, err
	}
	r, err := s.Run(bench, model, v)
	if err != nil {
		return 0, err
	}
	return float64(ref.Cycles) / float64(r.Cycles), nil
}

// Benchmarks returns every benchmark name: the paper's seven kernels first,
// then the multi-phase portfolio benchmarks. Table 2, the golden-stats
// matrix, and the serving layer cover all of them.
func Benchmarks() []string {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Name)
	}
	return names
}

// PaperBenchmarks returns the seven single-phase kernels matching the
// paper's Table 1 rows. The figure drivers (Figures 2 and 8-10) iterate
// these so their averages stay comparable with the paper's; the multi-phase
// benchmarks (Spec.MinSlices >= 2) exist to exercise the slice portfolio
// and are reported through Table 2 instead.
func PaperBenchmarks() []string {
	var names []string
	for _, s := range workloads.All() {
		if s.MinSlices < 2 {
			names = append(names, s.Name)
		}
	}
	return names
}
