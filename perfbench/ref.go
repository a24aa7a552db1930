package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ssp/internal/sim"
)

// cellStats is the stat vector of one simulated cell the output-identity
// gate compares: every modelled statistic plus the host-strategy counters
// (fast-forward jumps), which are deterministic too.
type cellStats struct {
	Cycles              int64
	Breakdown           [sim.NumCategories]int64
	MainInstrs          int64
	SpecInstrs          int64
	Spawns              int64
	SpawnsIgnored       int64
	ChkTaken            int64
	Mispredicts         int64
	SpecStores          int64
	FastForwards        int64
	FastForwardedCycles int64
	MemChecksum         uint64
	MemAccesses         uint64
	MemL1Hits           uint64
	MissCycles          uint64
	TLBMisses           uint64
	PrefetchIssued      uint64
	PrefetchUseful      uint64
	DroppedPrefetches   uint64
}

func statsOf(r *sim.Result) cellStats {
	return cellStats{
		Cycles:              r.Cycles,
		Breakdown:           r.Breakdown,
		MainInstrs:          r.MainInstrs,
		SpecInstrs:          r.SpecInstrs,
		Spawns:              r.Spawns,
		SpawnsIgnored:       r.SpawnsIgnored,
		ChkTaken:            r.ChkTaken,
		Mispredicts:         r.Mispredicts,
		SpecStores:          r.SpecStores,
		FastForwards:        r.FastForwards,
		FastForwardedCycles: r.FastForwardedCycles,
		MemChecksum:         r.MemChecksum,
		MemAccesses:         r.Hier.Totals.Accesses,
		MemL1Hits:           r.Hier.Totals.Hits[0][0],
		MissCycles:          r.Hier.Totals.MissCycles,
		TLBMisses:           r.Hier.Totals.TLBMisses,
		PrefetchIssued:      r.Hier.PrefetchIssued,
		PrefetchUseful:      r.Hier.PrefetchUseful,
		DroppedPrefetches:   r.Hier.DroppedPrefetches,
	}
}

// readRef loads perfbench/ref/<workload>.json into v.
func readRef(o options, v any) error {
	data, err := os.ReadFile(filepath.Join(refDir, o.workload+".json"))
	if err != nil {
		return fmt.Errorf("reference outputs: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("reference outputs %s: %w", o.workload, err)
	}
	return nil
}

// writeRef stores v as the workload's reference outputs.
func writeRef(o options, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(refDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(refDir, o.workload+".json"), append(data, '\n'), 0o644)
}

// sameJSON reports whether a and b encode to identical JSON.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
