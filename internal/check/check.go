// Package check is the differential and invariant validation subsystem for
// the SSP toolchain. The paper's central safety claim (§2) is that adaptation
// "does not alter the architectural state of the main thread", and the whole
// evaluation rests on three engines — the functional interpreter, the
// in-order model, and the OOO model — agreeing on what a program does while
// disagreeing only on when. This package asserts exactly that, in three
// layers:
//
//  1. Differential: the same linked image, executed by the interpreter and
//     both cycle models, yields identical final main-thread registers,
//     memory checksum, and (for programs without SSP attachments, whose
//     architectural path is timing-independent) retired main-thread
//     instruction counts.
//  2. Metamorphic: an adapted program's main-thread architectural state
//     equals the original's under both machine models, and its speculative
//     threads never attempt a store (Result.SpecStores == 0).
//  3. Conservation: every sim.Result is internally consistent — the cycle
//     breakdown and the context-utilization histogram each sum to Cycles,
//     cache hit counts reconcile with access counts at every level, and the
//     spawn accounting covers every taken chk.c.
//
// All layers are fed by workloads.RandomProgram, so any violation reproduces
// from its seed alone (cmd/sspcheck -seed N).
package check

import (
	"fmt"
	"math/rand"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// maxInterpInstrs bounds functional interpretation of checked programs.
const maxInterpInstrs = 100_000_000

// Configs returns the machine configurations a check run exercises: the
// in-order and OOO models, on the scaled-down test memory system when tiny
// is set (the configuration used by cmd/sspcheck and the test suites).
func Configs(tiny bool) []sim.Config {
	io, oo := sim.DefaultInOrder(), sim.DefaultOOO()
	if tiny {
		io.UseTinyMem()
		oo.UseTinyMem()
	}
	return []sim.Config{io, oo}
}

// hasSSP reports whether the program carries SSP attachments (chk.c or
// spawn); their trigger timing is machine-dependent, so instruction counts
// and the reserved scratch register may legitimately differ across engines.
func hasSSP(p *ir.Program) bool {
	found := false
	for _, f := range p.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpChk || in.Op == ir.OpSpawn {
				found = true
			}
		})
	}
	return found
}

// run executes one engine over a predecoded image and applies the
// conservation layer to its result. Callers predecode once and share the
// program across every engine and configuration of a check.
func run(cfg sim.Config, dp *decode.Program) (*sim.Result, error) {
	return runMachine(sim.NewPredecoded(cfg, dp))
}

// runMachine executes an already-built machine and applies the conservation
// layer, for callers that manage machine construction themselves (the
// hot-path gate reuses one machine across runs via Machine.Reset).
func runMachine(m *sim.Machine) (*sim.Result, error) {
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("%v: watchdog expired after %d cycles", m.Cfg.Model, res.Cycles)
	}
	if res.MainKilled {
		return nil, fmt.Errorf("%v: main thread executed thread_kill_self", m.Cfg.Model)
	}
	if err := Conservation(res); err != nil {
		return nil, fmt.Errorf("%v: %w", m.Cfg.Model, err)
	}
	return res, nil
}

// compareRegs diffs two main-thread register files, optionally skipping the
// SSP scratch register (stubs stage the countdown bound through it on the
// main thread, so it diverges between original and adapted runs by design).
func compareRegs(a, b [ir.NumRegs]uint64, skipScratch bool, what string) error {
	for r := 0; r < ir.NumRegs; r++ {
		if skipScratch && ir.Reg(r) == ssp.ScratchGR {
			continue
		}
		if a[r] != b[r] {
			return fmt.Errorf("%s: r%d = %#x vs %#x", what, r, a[r], b[r])
		}
	}
	return nil
}

// Differential runs the linked program under the functional interpreter and
// every configured cycle model and asserts they agree on final main-thread
// registers and memory checksum; for SSP-free programs the retired
// main-thread instruction counts must also be identical (layer 1). Every
// produced Result additionally passes the conservation layer.
func Differential(cfgs []sim.Config, p *ir.Program, maxInstrs int64) error {
	img, err := ir.Link(p)
	if err != nil {
		return fmt.Errorf("check: link: %w", err)
	}
	dp := sim.Predecode(img)
	ssped := hasSSP(p)
	ref, err := sim.InterpretPredecoded(cfgs[0], dp, maxInstrs)
	if err != nil {
		return fmt.Errorf("check: interpret: %w", err)
	}
	refSum := ref.Mem.Checksum()
	for _, cfg := range cfgs {
		res, err := run(cfg, dp)
		if err != nil {
			return fmt.Errorf("check: differential: %w", err)
		}
		if err := compareRegs(res.FinalRegs, ref.Regs, ssped, "regs vs interpreter"); err != nil {
			return fmt.Errorf("check: differential %v: %w", cfg.Model, err)
		}
		if res.MemChecksum != refSum {
			return fmt.Errorf("check: differential %v: memory checksum %#x, interpreter %#x", cfg.Model, res.MemChecksum, refSum)
		}
		if !ssped && res.MainInstrs != ref.Instrs {
			return fmt.Errorf("check: differential %v: retired %d main instrs, interpreter %d", cfg.Model, res.MainInstrs, ref.Instrs)
		}
	}
	return nil
}

// Metamorphic asserts the SSP invariant (layer 2): under every configured
// machine model the adapted program finishes with the same main-thread
// architectural state (registers minus the reserved scratch, memory
// checksum) as the original, and its speculative threads never attempt a
// store. Every produced Result also passes the conservation layer.
func Metamorphic(cfgs []sim.Config, orig, adapted *ir.Program) error {
	imgO, err := ir.Link(orig)
	if err != nil {
		return fmt.Errorf("check: link original: %w", err)
	}
	imgA, err := ir.Link(adapted)
	if err != nil {
		return fmt.Errorf("check: link adapted: %w", err)
	}
	dpO, dpA := sim.Predecode(imgO), sim.Predecode(imgA)
	for _, cfg := range cfgs {
		resO, err := run(cfg, dpO)
		if err != nil {
			return fmt.Errorf("check: metamorphic original: %w", err)
		}
		resA, err := run(cfg, dpA)
		if err != nil {
			return fmt.Errorf("check: metamorphic adapted: %w", err)
		}
		if err := MetamorphicResults(resO, resA); err != nil {
			return fmt.Errorf("%v: %w", cfg.Model, err)
		}
	}
	return nil
}

// MetamorphicResults applies the metamorphic invariant to two results that
// were already computed on the same machine model and inputs: the adapted
// run must reproduce the original's main-thread architectural state
// (registers minus the reserved scratch, memory checksum) and its
// speculative threads must never store. Callers that already hold both
// results — the closed-loop tuner gates every round this way — avoid the
// four fresh simulations Metamorphic performs.
func MetamorphicResults(orig, adapted *sim.Result) error {
	if err := compareRegs(adapted.FinalRegs, orig.FinalRegs, true, "adapted vs original"); err != nil {
		return fmt.Errorf("check: metamorphic: %w", err)
	}
	if adapted.MemChecksum != orig.MemChecksum {
		return fmt.Errorf("check: metamorphic: adapted memory checksum %#x, original %#x", adapted.MemChecksum, orig.MemChecksum)
	}
	if adapted.SpecStores != 0 {
		return fmt.Errorf("check: metamorphic: speculative threads attempted %d stores", adapted.SpecStores)
	}
	return nil
}

// Conservation asserts the internal-consistency invariants of one simulation
// result (layer 3).
func Conservation(res *sim.Result) error {
	var bd int64
	for _, c := range res.Breakdown {
		bd += c
	}
	if bd != res.Cycles {
		return fmt.Errorf("check: conservation: breakdown sums to %d, cycles %d", bd, res.Cycles)
	}
	var hist int64
	for _, c := range res.SpecActiveHist {
		hist += c
	}
	if hist != res.Cycles {
		return fmt.Errorf("check: conservation: utilization histogram sums to %d, cycles %d", hist, res.Cycles)
	}
	if res.Hier != nil {
		if err := reconcile(&res.Hier.Totals, "totals"); err != nil {
			return err
		}
		var perLoad uint64
		for id, s := range res.Hier.ByLoad() {
			if err := reconcile(s, fmt.Sprintf("load %d", id)); err != nil {
				return err
			}
			perLoad += s.Accesses
		}
		if perLoad != res.Hier.Totals.Accesses {
			return fmt.Errorf("check: conservation: per-load accesses sum to %d, totals %d", perLoad, res.Hier.Totals.Accesses)
		}
	}
	// Every taken chk.c redirects the main thread into a straight-line stub
	// that ends in spawn, so — on runs that finished — each taken check
	// produced a spawn attempt (started or ignored); chained slices only
	// add to the left side.
	if !res.TimedOut && !res.MainKilled && res.Spawns+res.SpawnsIgnored < res.ChkTaken {
		return fmt.Errorf("check: conservation: %d spawns + %d ignored < %d chk.c taken", res.Spawns, res.SpawnsIgnored, res.ChkTaken)
	}
	return nil
}

// reconcile asserts hits+misses reconcile with accesses for one load stat:
// every counted access lands in exactly one (level, full/partial) bucket.
func reconcile(s *mem.LoadStat, what string) error {
	var hits uint64
	for lvl := range s.Hits {
		hits += s.Hits[lvl][0] + s.Hits[lvl][1]
	}
	if hits != s.Accesses {
		return fmt.Errorf("check: conservation: %s: %d bucketed accesses, %d counted", what, hits, s.Accesses)
	}
	return nil
}

// PredecodeEquivalence asserts that the predecode layer is semantically
// inert (the regression gate for the decode-once refactor): for every
// configured machine model, an engine over a privately predecoded image, two
// consecutive engines over one shared predecoded image, and an engine with
// per-cycle stats instrumentation detached all agree on the architectural
// triple — final main-thread registers, memory checksum, and retired
// main-thread instruction count. The repeated shared run would expose any
// engine mutating the supposedly immutable decode; the stats-off run would
// expose timing or architectural state leaking through the hook layer.
func PredecodeEquivalence(cfgs []sim.Config, p *ir.Program) error {
	img, err := ir.Link(p)
	if err != nil {
		return fmt.Errorf("check: link: %w", err)
	}
	shared := sim.Predecode(img)
	for _, cfg := range cfgs {
		fresh, err := run(cfg, sim.Predecode(img))
		if err != nil {
			return fmt.Errorf("check: predecode %v: fresh: %w", cfg.Model, err)
		}
		first, err := run(cfg, shared)
		if err != nil {
			return fmt.Errorf("check: predecode %v: shared: %w", cfg.Model, err)
		}
		second, err := run(cfg, shared)
		if err != nil {
			return fmt.Errorf("check: predecode %v: shared rerun: %w", cfg.Model, err)
		}
		// Stats-off run: Breakdown/SpecActiveHist are deliberately empty, so
		// it bypasses run()'s conservation layer.
		fast := sim.NewPredecoded(cfg, shared)
		fast.DisableStats()
		quick, err := fast.Run()
		if err != nil {
			return fmt.Errorf("check: predecode %v: stats-off: %w", cfg.Model, err)
		}
		if quick.TimedOut {
			return fmt.Errorf("check: predecode %v: stats-off: watchdog expired", cfg.Model)
		}
		for _, alt := range []struct {
			what string
			res  *sim.Result
		}{
			{"shared decode vs fresh decode", first},
			{"shared decode rerun vs fresh decode", second},
			{"stats-off vs fresh decode", quick},
		} {
			if err := compareRegs(alt.res.FinalRegs, fresh.FinalRegs, false, alt.what); err != nil {
				return fmt.Errorf("check: predecode %v: %w", cfg.Model, err)
			}
			if alt.res.MemChecksum != fresh.MemChecksum {
				return fmt.Errorf("check: predecode %v: %s: memory checksum %#x vs %#x", cfg.Model, alt.what, alt.res.MemChecksum, fresh.MemChecksum)
			}
			if alt.res.MainInstrs != fresh.MainInstrs {
				return fmt.Errorf("check: predecode %v: %s: retired %d main instrs vs %d", cfg.Model, alt.what, alt.res.MainInstrs, fresh.MainInstrs)
			}
			if alt.res.Cycles != fresh.Cycles {
				return fmt.Errorf("check: predecode %v: %s: %d cycles vs %d", cfg.Model, alt.what, alt.res.Cycles, fresh.Cycles)
			}
		}
	}
	return nil
}

// FastForwardEquivalence asserts that the stall-aware fast-forward timing
// core is an execution strategy, not a model change (the regression gate for
// fastforward.go): for every configured machine model, a per-cycle run and a
// fast-forwarded run of the same predecoded image agree bit-for-bit on the
// complete result — cycles, architectural state, every cell of the Figure 10
// breakdown and the utilization histogram, the event counters, and the full
// per-load memory-system statistics. A stats-off pair is compared as well,
// since detaching the cycle hook removes the pending-fill classification
// events and exercises the shorter event set. The fast run must also pass
// the conservation layer (run() applies it), which is what makes the bulk
// crediting honest rather than merely internally consistent.
//
// A profiled fast-forwarded run (Config.Profile) must equal the plain one
// too, fast-forward counters included: profiling only counts through an
// exec hook, which is what lets exp.Suite keep its profiling run as the
// in-order base cell.
func FastForwardEquivalence(cfgs []sim.Config, p *ir.Program) error {
	img, err := ir.Link(p)
	if err != nil {
		return fmt.Errorf("check: link: %w", err)
	}
	dp := sim.Predecode(img)
	for _, cfg := range cfgs {
		slowCfg, fastCfg := cfg, cfg
		slowCfg.FastForward, fastCfg.FastForward = false, true
		slow, err := run(slowCfg, dp)
		if err != nil {
			return fmt.Errorf("check: fastforward %v: per-cycle: %w", cfg.Model, err)
		}
		fast, err := run(fastCfg, dp)
		if err != nil {
			return fmt.Errorf("check: fastforward %v: fast: %w", cfg.Model, err)
		}
		if err := sameTiming(fast, slow); err != nil {
			return fmt.Errorf("check: fastforward %v: %w", cfg.Model, err)
		}
		profCfg := fastCfg
		profCfg.Profile = true
		prof, err := run(profCfg, dp)
		if err != nil {
			return fmt.Errorf("check: fastforward %v: profiled: %w", cfg.Model, err)
		}
		if err := sameTiming(prof, fast); err != nil {
			return fmt.Errorf("check: fastforward %v: profiled vs plain: %w", cfg.Model, err)
		}
		if prof.FastForwards != fast.FastForwards || prof.FastForwardedCycles != fast.FastForwardedCycles {
			return fmt.Errorf("check: fastforward %v: profiled vs plain: %d jumps over %d cycles vs %d over %d",
				cfg.Model, prof.FastForwards, prof.FastForwardedCycles, fast.FastForwards, fast.FastForwardedCycles)
		}
		// Stats-off pair: no cycle hook means no pending-fill events bound
		// the jumps, so the core must stay cycle-exact on timing alone.
		var offRes [2]*sim.Result
		for i, c := range []sim.Config{slowCfg, fastCfg} {
			m := sim.NewPredecoded(c, dp)
			m.DisableStats()
			r, err := m.Run()
			if err != nil {
				return fmt.Errorf("check: fastforward %v: stats-off: %w", cfg.Model, err)
			}
			if r.TimedOut {
				return fmt.Errorf("check: fastforward %v: stats-off: watchdog expired", cfg.Model)
			}
			offRes[i] = r
		}
		if err := compareRegs(offRes[1].FinalRegs, offRes[0].FinalRegs, false, "stats-off fast vs per-cycle"); err != nil {
			return fmt.Errorf("check: fastforward %v: %w", cfg.Model, err)
		}
		if offRes[1].Cycles != offRes[0].Cycles {
			return fmt.Errorf("check: fastforward %v: stats-off: %d cycles vs %d", cfg.Model, offRes[1].Cycles, offRes[0].Cycles)
		}
		if offRes[1].MemChecksum != offRes[0].MemChecksum {
			return fmt.Errorf("check: fastforward %v: stats-off: memory checksum %#x vs %#x", cfg.Model, offRes[1].MemChecksum, offRes[0].MemChecksum)
		}
	}
	return nil
}

// sameTiming diffs two results field by field, excluding only the
// FastForwards/FastForwardedCycles strategy counters (which describe how the
// host got there, not where the simulated machine ended up).
func sameTiming(fast, slow *sim.Result) error {
	if err := compareRegs(fast.FinalRegs, slow.FinalRegs, false, "fast vs per-cycle"); err != nil {
		return err
	}
	for _, c := range []struct {
		what       string
		fast, slow int64
	}{
		{"cycles", fast.Cycles, slow.Cycles},
		{"main instrs", fast.MainInstrs, slow.MainInstrs},
		{"spec instrs", fast.SpecInstrs, slow.SpecInstrs},
		{"spawns", fast.Spawns, slow.Spawns},
		{"spawns ignored", fast.SpawnsIgnored, slow.SpawnsIgnored},
		{"chk taken", fast.ChkTaken, slow.ChkTaken},
		{"mispredicts", fast.Mispredicts, slow.Mispredicts},
		{"spec stores", fast.SpecStores, slow.SpecStores},
	} {
		if c.fast != c.slow {
			return fmt.Errorf("%s: %d vs %d", c.what, c.fast, c.slow)
		}
	}
	if fast.MemChecksum != slow.MemChecksum {
		return fmt.Errorf("memory checksum %#x vs %#x", fast.MemChecksum, slow.MemChecksum)
	}
	for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
		if fast.Breakdown[cat] != slow.Breakdown[cat] {
			return fmt.Errorf("breakdown[%v]: %d vs %d", cat, fast.Breakdown[cat], slow.Breakdown[cat])
		}
	}
	if len(fast.SpecActiveHist) != len(slow.SpecActiveHist) {
		return fmt.Errorf("utilization histogram length %d vs %d", len(fast.SpecActiveHist), len(slow.SpecActiveHist))
	}
	for k := range fast.SpecActiveHist {
		if fast.SpecActiveHist[k] != slow.SpecActiveHist[k] {
			return fmt.Errorf("utilization[%d]: %d vs %d", k, fast.SpecActiveHist[k], slow.SpecActiveHist[k])
		}
	}
	if fast.Hier.Totals != slow.Hier.Totals {
		return fmt.Errorf("memory totals %+v vs %+v", fast.Hier.Totals, slow.Hier.Totals)
	}
	fastLoads, slowLoads := fast.Hier.ByLoad(), slow.Hier.ByLoad()
	if len(fastLoads) != len(slowLoads) {
		return fmt.Errorf("per-load stat count %d vs %d", len(fastLoads), len(slowLoads))
	}
	for id, fs := range fastLoads {
		ss := slowLoads[id]
		if ss == nil || *fs != *ss {
			return fmt.Errorf("per-load stats for load %d diverge: %+v vs %+v", id, fs, ss)
		}
	}
	return nil
}

// FastForwardSeed runs the fast-forward equivalence gate on an original and
// an adapted random program from one seed; sweeping it over N seeds is the
// regression net for the stall-jump core (cmd/sspcheck -fastforward). The
// adapted program matters: speculative threads exercise the round-robin
// cursor replay and the multi-thread veto paths that a single-threaded run
// never reaches.
func FastForwardSeed(seed int64, cfgs []sim.Config) error {
	p := workloads.RandomProgram(seed)
	if err := FastForwardEquivalence(cfgs, p); err != nil {
		return fmt.Errorf("seed %d: original: %w", seed, err)
	}
	prof, err := profile.Collect(p, cfgs[0])
	if err != nil {
		return fmt.Errorf("seed %d: profile: %w", seed, err)
	}
	adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), fmt.Sprintf("seed%d", seed))
	if err != nil {
		return fmt.Errorf("seed %d: adapt: %w", seed, err)
	}
	if err := FastForwardEquivalence(cfgs, adapted); err != nil {
		return fmt.Errorf("seed %d: adapted: %w", seed, err)
	}
	return nil
}

// HotPathEquivalence asserts that the flattened hot-path data layout (radix
// page table, dense per-load stats, ring-buffer windows) and Machine.Reset
// reuse are invisible in results (the regression gate for the map-free
// memory/stats refactor): for every configured machine model and every given
// program, a run on a single machine that is Reset and reused across all
// (model, program) cells — crossing model switches, program switches, and
// dirty caches/predictors/stat tables — must agree bit-for-bit with a run on
// a freshly constructed machine: cycles, breakdowns, histograms, event
// counters, and the complete per-load memory statistics (sameTiming). Every
// run also passes the conservation layer, so the dense stat table has to
// reconcile exactly like the map it replaced.
func HotPathEquivalence(cfgs []sim.Config, progs ...*ir.Program) error {
	dps := make([]*decode.Program, len(progs))
	for i, p := range progs {
		img, err := ir.Link(p)
		if err != nil {
			return fmt.Errorf("check: link program %d: %w", i, err)
		}
		dps[i] = sim.Predecode(img)
	}
	fresh := make([][]*sim.Result, len(cfgs))
	for ci, cfg := range cfgs {
		fresh[ci] = make([]*sim.Result, len(dps))
		for pi, dp := range dps {
			r, err := run(cfg, dp)
			if err != nil {
				return fmt.Errorf("check: hotpath %v: fresh program %d: %w", cfg.Model, pi, err)
			}
			fresh[ci][pi] = r
		}
	}
	// One machine walks every cell in sequence; each Reset must scrub the
	// previous cell's state (pages, caches, TLB, predictor, windows, stats)
	// without losing the layout reuse the hot path depends on.
	var m *sim.Machine
	reused := func(ci, pi int) error {
		cfg, dp := cfgs[ci], dps[pi]
		if m == nil {
			m = sim.NewPredecoded(cfg, dp)
		} else {
			m.Reset(cfg, dp)
		}
		r, err := runMachine(m)
		if err != nil {
			return fmt.Errorf("check: hotpath %v: reused program %d: %w", cfg.Model, pi, err)
		}
		if err := sameTiming(r, fresh[ci][pi]); err != nil {
			return fmt.Errorf("check: hotpath %v: reused machine, program %d: %w", cfg.Model, pi, err)
		}
		return nil
	}
	for ci := range cfgs {
		for pi := range dps {
			if err := reused(ci, pi); err != nil {
				return err
			}
		}
	}
	// Close the loop: Reset from the last cell back to the first, so the
	// sweep also covers the final-model -> first-model transition.
	return reused(0, 0)
}

// HotPathSeed runs the hot-path equivalence gate on an original and an
// adapted random program from one seed; sweeping it over N seeds is the
// regression net for the flattened data layout and machine pooling
// (cmd/sspcheck -hotpath). The adapted program matters: prefetches exercise
// the ring-buffer accuracy window and spawns exercise per-thread buffer
// reuse, which the original program never touches.
func HotPathSeed(seed int64, cfgs []sim.Config) error {
	p := workloads.RandomProgram(seed)
	prof, err := profile.Collect(p, cfgs[0])
	if err != nil {
		return fmt.Errorf("seed %d: profile: %w", seed, err)
	}
	adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), fmt.Sprintf("seed%d", seed))
	if err != nil {
		return fmt.Errorf("seed %d: adapt: %w", seed, err)
	}
	if err := HotPathEquivalence(cfgs, p, adapted); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// PredecodeSeed runs the predecode-equivalence gate on one random program;
// sweeping it over N seeds is the regression net for the table-dispatch
// execution core (cmd/sspcheck -predecode).
func PredecodeSeed(seed int64, cfgs []sim.Config) error {
	if err := PredecodeEquivalence(cfgs, workloads.RandomProgram(seed)); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// ThreadedEquivalence asserts that the closure-threaded execution core
// (internal/sim/threaded) is an execution strategy, not a model change (the
// regression gate for the threaded-code refactor): for every configured
// machine model, with fast-forwarding both off and on, a table-dispatch run
// and threaded runs of the same program agree bit-for-bit on the complete
// result — cycles, architectural state, every cell of the Figure 10 breakdown
// and the utilization histogram, the event counters, and the full per-load
// memory statistics. The threaded side runs three ways: over a privately
// predecoded image (fresh chain compile), over a shared predecoded image
// (memoized compile), and a rerun over the same shared image (warm sidecar) —
// the rerun would expose an engine mutating the supposedly immutable compiled
// chains. A stats-off pair is compared as well, since detaching the cycle
// hook exercises the devirtualized default-stats path's absence. Finally the
// functional interpreter's chain walker is compared against its table loop on
// final registers, instruction count, and memory checksum.
func ThreadedEquivalence(cfgs []sim.Config, p *ir.Program) error {
	img, err := ir.Link(p)
	if err != nil {
		return fmt.Errorf("check: link: %w", err)
	}
	shared := sim.Predecode(img)

	// Functional interpreter: chains vs table loop.
	icOff, icOn := cfgs[0], cfgs[0]
	icOff.Threaded, icOn.Threaded = false, true
	tblI, err := sim.InterpretPredecoded(icOff, shared, maxInterpInstrs)
	if err != nil {
		return fmt.Errorf("check: threaded: table interpret: %w", err)
	}
	thrI, err := sim.InterpretPredecoded(icOn, shared, maxInterpInstrs)
	if err != nil {
		return fmt.Errorf("check: threaded: chain interpret: %w", err)
	}
	if err := compareRegs(thrI.Regs, tblI.Regs, false, "chain interpreter vs table"); err != nil {
		return fmt.Errorf("check: threaded: %w", err)
	}
	if thrI.Instrs != tblI.Instrs {
		return fmt.Errorf("check: threaded: chain interpreter retired %d instrs, table %d", thrI.Instrs, tblI.Instrs)
	}
	if thrI.Mem.Checksum() != tblI.Mem.Checksum() {
		return fmt.Errorf("check: threaded: chain interpreter checksum %#x, table %#x", thrI.Mem.Checksum(), tblI.Mem.Checksum())
	}

	for _, cfg := range cfgs {
		for _, ff := range []bool{false, true} {
			off, on := cfg, cfg
			off.Threaded, on.Threaded = false, true
			off.FastForward, on.FastForward = ff, ff
			ref, err := run(off, shared)
			if err != nil {
				return fmt.Errorf("check: threaded %v ff=%v: table: %w", cfg.Model, ff, err)
			}
			fresh, err := run(on, sim.Predecode(img))
			if err != nil {
				return fmt.Errorf("check: threaded %v ff=%v: fresh: %w", cfg.Model, ff, err)
			}
			first, err := run(on, shared)
			if err != nil {
				return fmt.Errorf("check: threaded %v ff=%v: shared: %w", cfg.Model, ff, err)
			}
			second, err := run(on, shared)
			if err != nil {
				return fmt.Errorf("check: threaded %v ff=%v: shared rerun: %w", cfg.Model, ff, err)
			}
			for _, alt := range []struct {
				what string
				res  *sim.Result
			}{
				{"fresh compile", fresh},
				{"shared compile", first},
				{"shared compile rerun", second},
			} {
				if err := sameTiming(alt.res, ref); err != nil {
					return fmt.Errorf("check: threaded %v ff=%v: %s vs table: %w", cfg.Model, ff, alt.what, err)
				}
			}
			// Stats-off pair: Breakdown/SpecActiveHist are deliberately
			// empty, bypassing run()'s conservation layer, and the engines'
			// devirtualized default-stats branch is not taken.
			var offRes [2]*sim.Result
			for i, c := range []sim.Config{off, on} {
				m := sim.NewPredecoded(c, shared)
				m.DisableStats()
				r, err := m.Run()
				if err != nil {
					return fmt.Errorf("check: threaded %v ff=%v: stats-off: %w", cfg.Model, ff, err)
				}
				if r.TimedOut {
					return fmt.Errorf("check: threaded %v ff=%v: stats-off: watchdog expired", cfg.Model, ff)
				}
				offRes[i] = r
			}
			if err := compareRegs(offRes[1].FinalRegs, offRes[0].FinalRegs, false, "stats-off threaded vs table"); err != nil {
				return fmt.Errorf("check: threaded %v ff=%v: %w", cfg.Model, ff, err)
			}
			if offRes[1].Cycles != offRes[0].Cycles {
				return fmt.Errorf("check: threaded %v ff=%v: stats-off: %d cycles vs %d", cfg.Model, ff, offRes[1].Cycles, offRes[0].Cycles)
			}
			if offRes[1].MemChecksum != offRes[0].MemChecksum {
				return fmt.Errorf("check: threaded %v ff=%v: stats-off: memory checksum %#x vs %#x", cfg.Model, ff, offRes[1].MemChecksum, offRes[0].MemChecksum)
			}
		}
	}
	return nil
}

// ThreadedSeed runs the threaded-equivalence gate on an original and an
// adapted random program from one seed; sweeping it over N seeds is the
// regression net for the closure-threaded execution core (cmd/sspcheck
// -threaded). The adapted program matters: chk.c stubs, spawns and
// speculative slices exercise the engines' budget enforcement and kill paths
// under the pure-step fast lanes, which an original program never reaches.
func ThreadedSeed(seed int64, cfgs []sim.Config) error {
	p := workloads.RandomProgram(seed)
	if err := ThreadedEquivalence(cfgs, p); err != nil {
		return fmt.Errorf("seed %d: original: %w", seed, err)
	}
	prof, err := profile.Collect(p, cfgs[0])
	if err != nil {
		return fmt.Errorf("seed %d: profile: %w", seed, err)
	}
	adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), fmt.Sprintf("seed%d", seed))
	if err != nil {
		return fmt.Errorf("seed %d: adapt: %w", seed, err)
	}
	if err := ThreadedEquivalence(cfgs, adapted); err != nil {
		return fmt.Errorf("seed %d: adapted: %w", seed, err)
	}
	return nil
}

// Seed drives all three layers from one seed: generate a random program,
// differentially validate it, adapt it with a seed-derived option mix
// (ssp.Adapt runs Validate and VerifyAttachments internally), then validate
// the adapted binary differentially and metamorphically. The same seed
// always reproduces the same programs and verdict.
func Seed(seed int64, cfgs []sim.Config) error {
	p := workloads.RandomProgram(seed)
	if err := Differential(cfgs, p, maxInterpInstrs); err != nil {
		return fmt.Errorf("seed %d: original: %w", seed, err)
	}
	prof, err := profile.Collect(p, cfgs[0])
	if err != nil {
		return fmt.Errorf("seed %d: profile: %w", seed, err)
	}
	r := rand.New(rand.NewSource(seed))
	opt := ssp.DefaultOptions()
	opt.Chaining = r.Intn(4) != 0
	opt.LoopRotation = r.Intn(4) != 0
	opt.CondPrediction = r.Intn(4) != 0
	opt.SpeculativeSlicing = r.Intn(4) != 0
	if r.Intn(3) == 0 {
		opt.ChainUnroll = 2 + r.Intn(2)
	}
	adapted, _, err := ssp.Adapt(p, prof, opt, fmt.Sprintf("seed%d", seed))
	if err != nil {
		return fmt.Errorf("seed %d: adapt: %w", seed, err)
	}
	if err := Differential(cfgs, adapted, maxInterpInstrs); err != nil {
		return fmt.Errorf("seed %d: adapted: %w", seed, err)
	}
	if err := Metamorphic(cfgs, p, adapted); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}
