// Package profile implements the profiling feedback of Figure 1: the
// original binary is run on the simulator to collect cache profiles (which
// identify delinquent loads, §2.2), basic-block frequencies and loop trip
// counts (which drive speculative slicing and region selection, §3.1.2,
// §3.4.1), and the dynamic call graph of indirect calls (§3.1.2).
package profile

import (
	"context"
	"fmt"
	"sort"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/mem"
)

// Profile is the feedback bundle handed to the post-pass tool.
type Profile struct {
	// InstrFreq maps instruction ID to its main-thread execution count.
	InstrFreq map[int]uint64
	// BlockFreq maps "func.label" to the block's entry count.
	BlockFreq map[string]uint64
	// Loads maps a load instruction ID to its cache behaviour.
	Loads map[int]*mem.LoadStat
	// TotalMissCycles sums miss cycles over all loads.
	TotalMissCycles uint64
	// CallEdges maps an indirect-call instruction ID to callee function
	// names with counts.
	CallEdges map[int]map[string]uint64
	// Cycles is the baseline run's cycle count.
	Cycles int64
	// MemCfg records the memory latencies the profile was taken with, so
	// latency estimation is consistent with the machine model.
	MemCfg mem.Config
}

// Collect runs the program once on the given machine model with profiling
// enabled and returns the feedback bundle.
func Collect(p *ir.Program, cfg sim.Config) (*Profile, error) {
	return CollectContext(context.Background(), p, cfg)
}

// CollectContext is Collect under a context: a cancelled profiling run
// returns ctx.Err() promptly instead of simulating to completion. Profiling
// is the first simulation of every adapt pipeline, so cancellable serving
// paths need the ctx to reach it.
func CollectContext(ctx context.Context, p *ir.Program, cfg sim.Config) (*Profile, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, err
	}
	cfg.Profile = true
	res, err := sim.New(cfg, img).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("profile: run timed out after %d cycles", res.Cycles)
	}
	return FromResult(p, img, res, cfg.Mem), nil
}

// FromResult builds the feedback bundle from a finished run of p's linked
// image img made with Config.Profile set (res.PCCount and res.CallEdges are
// its input) under the memory configuration memCfg. Each load statistic is
// copied, as in Rebase, so the profile never aliases res: a caller may keep
// res as a cached result of its own. This is how a profiling run doubles as
// the in-order baseline run (exp.Suite).
func FromResult(p *ir.Program, img *ir.Image, res *sim.Result, memCfg mem.Config) *Profile {
	pr := &Profile{
		InstrFreq: make(map[int]uint64),
		BlockFreq: make(map[string]uint64),
		Loads:     make(map[int]*mem.LoadStat),
		CallEdges: make(map[int]map[string]uint64),
		Cycles:    res.Cycles,
		MemCfg:    memCfg,
	}
	for pc, count := range res.PCCount {
		if count == 0 {
			continue
		}
		in := &img.Code[pc].I
		pr.InstrFreq[in.ID] += count
		// The block's entry count is its first instruction's count.
		key := img.BlockKey(pc)
		if start, ok := img.BlockStarts[key]; ok && start == pc {
			pr.BlockFreq[key] += count
		}
	}
	pr.Loads, pr.TotalMissCycles = loadStats(res, p)
	for callID, edges := range res.CallEdges {
		m := make(map[string]uint64)
		for pc, n := range edges {
			if pc >= 0 && pc < len(img.FuncOf) {
				m[img.FuncNames[img.FuncOf[pc]]] += n
			}
		}
		pr.CallEdges[callID] = m
	}
	return pr
}

// loadStats copies a run's per-load statistics for the loads of program p,
// with their miss-cycle total.
func loadStats(res *sim.Result, p *ir.Program) (map[int]*mem.LoadStat, uint64) {
	loads := make(map[int]*mem.LoadStat)
	var total uint64
	for id, stat := range res.Hier.ByLoad() {
		_, _, in := p.InstrByID(id)
		if in == nil || in.Op != ir.OpLd {
			continue
		}
		s := *stat
		loads[id] = &s
		total += s.MissCycles
	}
	return loads, total
}

// DelinquentLoads returns the IDs of the static loads that together account
// for at least cutoff (e.g. 0.9) of all miss cycles, ranked by miss cycles,
// capped at max entries: "the tool uses the cache profiles from the
// simulator to identify the top delinquent loads that contribute to at least
// 90% of the cache misses" (§2.2). "For many programs, only a small number
// of static loads are responsible for the vast majority of cache misses."
//
// A cutoff of 1.0 (or more) selects every missing load; max <= 0 means no
// cap. The "at least" comparison is done in floating point against
// cutoff*total — truncating the target to an integer could stop one load
// early on rounding boundaries and silently under-cover.
func (pr *Profile) DelinquentLoads(cutoff float64, max int) []int {
	type cand struct {
		id int
		mc uint64
	}
	var cands []cand
	for id, s := range pr.Loads {
		if s.MissCycles > 0 {
			cands = append(cands, cand{id, s.MissCycles})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mc != cands[j].mc {
			return cands[i].mc > cands[j].mc
		}
		return cands[i].id < cands[j].id
	})
	if max <= 0 {
		max = len(cands)
	}
	target := cutoff * float64(pr.TotalMissCycles)
	var out []int
	var cum uint64
	for _, c := range cands {
		if len(out) >= max || (len(out) > 0 && float64(cum) >= target) {
			break
		}
		out = append(out, c.id)
		cum += c.mc
	}
	return out
}

// DelinquentLoadsByRegion ranks delinquent loads within hot regions instead
// of across the whole program: loads are grouped by the region key that
// regionOf assigns them, regions carrying less than minFrac of all miss
// cycles are dropped, and the §2.2 cutoff/max selection of DelinquentLoads is
// applied per region against that region's own miss-cycle total. Regions are
// emitted hottest first, so the result concatenates one target set per hot
// region — the portfolio shape of Table 2, where each hot routine gets its
// own p-slice. On a single-hot-region profile the result is identical to
// DelinquentLoads.
//
// A load regionOf maps to "" is unattributable (e.g. its instruction is gone
// from the current image) and competes in a region of its own. If selection
// comes up empty despite candidates existing, the global ranking is returned
// so callers never lose targets to over-aggressive region filtering.
func (pr *Profile) DelinquentLoadsByRegion(cutoff float64, max int, minFrac float64, regionOf func(id int) string) []int {
	type cand struct {
		id int
		mc uint64
	}
	byRegion := make(map[string][]cand)
	regionMC := make(map[string]uint64)
	any := false
	for id, s := range pr.Loads {
		if s.MissCycles == 0 {
			continue
		}
		any = true
		key := regionOf(id)
		byRegion[key] = append(byRegion[key], cand{id, s.MissCycles})
		regionMC[key] += s.MissCycles
	}
	keys := make([]string, 0, len(byRegion))
	for key := range byRegion {
		if float64(regionMC[key]) < minFrac*float64(pr.TotalMissCycles) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if regionMC[keys[i]] != regionMC[keys[j]] {
			return regionMC[keys[i]] > regionMC[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var out []int
	for _, key := range keys {
		cands := byRegion[key]
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].mc != cands[j].mc {
				return cands[i].mc > cands[j].mc
			}
			return cands[i].id < cands[j].id
		})
		lim := max
		if lim <= 0 {
			lim = len(cands)
		}
		target := cutoff * float64(regionMC[key])
		var cum uint64
		for i, c := range cands {
			if i >= lim || (i > 0 && float64(cum) >= target) {
				break
			}
			out = append(out, c.id)
			cum += c.mc
		}
	}
	if len(out) == 0 && any {
		return pr.DelinquentLoads(cutoff, max)
	}
	return out
}

// Rebase returns a profile whose load statistics come from an actual run's
// dense per-load stats (res.Hier) restricted to the loads of program p: the
// feedback harvest of the closed-loop tuner. Execution frequencies, block
// counts, and call edges are carried over unchanged — adaptation preserves
// the main thread's control flow (the metamorphic invariant), and slice
// instructions carry fresh IDs, so the original program's load IDs in an
// adapted run's stats are exactly the main thread's residual cache
// behaviour: what the adapted image left unprefetched.
//
// The carried-over maps are shared with the receiver; treat both profiles
// as read-only afterwards.
func (pr *Profile) Rebase(res *sim.Result, p *ir.Program) *Profile {
	out := &Profile{
		InstrFreq: pr.InstrFreq,
		BlockFreq: pr.BlockFreq,
		CallEdges: pr.CallEdges,
		Cycles:    res.Cycles,
		MemCfg:    pr.MemCfg,
	}
	out.Loads, out.TotalMissCycles = loadStats(res, p)
	return out
}

// ExpectedLoadLatency estimates the average latency of the given load from
// its profile: the L1 latency plus its average miss cycles per access. This
// is the "latency of a memory operation determined by cache profiling" used
// to annotate dependence edges for scheduling (§3.2.1).
func (pr *Profile) ExpectedLoadLatency(id int) float64 {
	s := pr.Loads[id]
	if s == nil || s.Accesses == 0 {
		return float64(pr.MemCfg.L1Lat)
	}
	return float64(pr.MemCfg.L1Lat) + float64(s.MissCycles)/float64(s.Accesses)
}

// Freq returns the execution count of the instruction.
func (pr *Profile) Freq(in *ir.Instr) uint64 { return pr.InstrFreq[in.ID] }

// BlockCount returns the entry count of block label in function fn.
func (pr *Profile) BlockCount(fn, label string) uint64 {
	return pr.BlockFreq[fn+"."+label]
}

// DominantCallee returns the most frequent callee recorded for the indirect
// call with the given ID, or "" if none.
func (pr *Profile) DominantCallee(callID int) string {
	best, bestN := "", uint64(0)
	names := make([]string, 0, len(pr.CallEdges[callID]))
	for name := range pr.CallEdges[callID] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := pr.CallEdges[callID][name]; n > bestN {
			best, bestN = name, n
		}
	}
	return best
}

// LoopTripCount estimates the average trip count of a loop whose header
// block is headerKey and whose distinct entry count from outside is
// entryCount: trips ≈ header executions / loop entries. Callers derive
// entryCount from the preheader frequency; a zero entryCount yields the raw
// header count (§3.4.1: "the trip counts are derived from block profiling if
// available; otherwise, they are estimated").
func (pr *Profile) LoopTripCount(headerKey string, entryCount uint64) float64 {
	h := pr.BlockFreq[headerKey]
	if h == 0 {
		return 1
	}
	if entryCount == 0 {
		return float64(h)
	}
	return float64(h) / float64(entryCount)
}
