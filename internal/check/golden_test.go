package check

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/random_golden.json from the current simulator")

// randomGoldenSeeds is how many RandomProgram seeds the random-program golden
// pins (each run original and adapted, under both models).
const randomGoldenSeeds = 64

// randomGoldenRun is the complete stat vector of one random-program run: every
// Result field a model change could move, with the register file and the
// per-load memory statistics folded into digests to keep the file readable.
// Unlike the equivalence sweeps, which compare two knobs of the same code,
// this pins timing against the simulator that wrote the file.
type randomGoldenRun struct {
	Cycles              int64
	MainInstrs          int64
	SpecInstrs          int64
	Breakdown           [sim.NumCategories]int64
	Spawns              int64
	SpawnsIgnored       int64
	ChkTaken            int64
	Mispredicts         int64
	SpecStores          int64
	SpecActiveHist      []int64
	FastForwards        int64
	FastForwardedCycles int64
	MemChecksum         uint64
	RegsDigest          uint64
	MemTotals           mem.LoadStat
	LoadsDigest         uint64
}

func toRandomGolden(res *sim.Result) randomGoldenRun {
	regs := fnv.New64a()
	for _, r := range res.FinalRegs {
		fmt.Fprintf(regs, "%x,", r)
	}
	loads := fnv.New64a()
	byLoad := res.Hier.ByLoad()
	ids := make([]int, 0, len(byLoad))
	for id := range byLoad {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(loads, "%+v;", *byLoad[id])
	}
	return randomGoldenRun{
		Cycles:              res.Cycles,
		MainInstrs:          res.MainInstrs,
		SpecInstrs:          res.SpecInstrs,
		Breakdown:           res.Breakdown,
		Spawns:              res.Spawns,
		SpawnsIgnored:       res.SpawnsIgnored,
		ChkTaken:            res.ChkTaken,
		Mispredicts:         res.Mispredicts,
		SpecStores:          res.SpecStores,
		SpecActiveHist:      res.SpecActiveHist,
		FastForwards:        res.FastForwards,
		FastForwardedCycles: res.FastForwardedCycles,
		MemChecksum:         res.MemChecksum,
		RegsDigest:          regs.Sum64(),
		MemTotals:           res.Hier.Totals,
		LoadsDigest:         loads.Sum64(),
	}
}

// TestRandomGoldenStats pins the full stat vector of seeded random programs,
// original and SSP-adapted, under both machine models with fast-forward on
// and the tiny memory system. Random programs reach scheduler corners the
// benchmark kernels of TestGoldenStats (internal/exp) do not: function-unit
// contention, mispredict-blocked dispatch, chk.c drains and multi-source
// records. Re-baseline only for an intended timing change, with
// `go test ./internal/check -run TestRandomGoldenStats -update`.
func TestRandomGoldenStats(t *testing.T) {
	cfgs := Configs(true)
	for i := range cfgs {
		cfgs[i].FastForward = true
	}
	got := make(map[string]randomGoldenRun)
	for seed := int64(0); seed < randomGoldenSeeds; seed++ {
		p := workloads.RandomProgram(seed)
		prof, err := profile.Collect(p, cfgs[0])
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), fmt.Sprintf("seed%d", seed))
		if err != nil {
			t.Fatalf("seed %d: adapt: %v", seed, err)
		}
		for _, v := range []struct {
			name string
			p    *ir.Program
		}{{"original", p}, {"adapted", adapted}} {
			img, err := ir.Link(v.p)
			if err != nil {
				t.Fatalf("seed %d %s: link: %v", seed, v.name, err)
			}
			dp := sim.Predecode(img)
			for _, cfg := range cfgs {
				res, err := run(cfg, dp)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, v.name, err)
				}
				got[fmt.Sprintf("%03d/%s/%s", seed, v.name, cfg.Model)] = toRandomGolden(res)
			}
		}
	}

	path := filepath.Join("testdata", "random_golden.json")
	if *update {
		if err := writeRandomGolden(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the baseline)", err)
	}
	var want map[string]randomGoldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, gok := got[k]
		w, wok := want[k]
		switch {
		case !gok:
			t.Errorf("%s: in golden file but no longer produced", k)
		case !wok:
			t.Errorf("%s: produced but missing from golden file (run -update)", k)
		case !reflect.DeepEqual(g, w):
			t.Errorf("%s: stats drifted (run -update only if the change is intended)\n got %+v\nwant %+v", k, g, w)
		}
	}
}

// writeRandomGolden writes one run per line, sorted by key, so a drift shows
// up in a diff as the lines of the runs that moved.
func writeRandomGolden(path string, runs map[string]randomGoldenRun) error {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(runs[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %q: %s%s\n", k, line, sep)
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
