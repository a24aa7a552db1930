package exp

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ssp/internal/profile"
	"ssp/internal/sim"
)

// TestProfilingRunIsBaseCell: the suite's profiling run doubles as the
// in-order base cell. For every benchmark, that shared cell must equal a
// fresh unprofiled simulation, asking for it after Workload must neither
// simulate (no pool Get) nor narrate (no Progress), and the profile built
// from it must equal the standalone profiling pass.
func TestProfilingRunIsBaseCell(t *testing.T) {
	ctx := context.Background()
	for _, b := range Benchmarks() {
		t.Run(b, func(t *testing.T) {
			s := NewSuite(ScaleTest)
			var narrated atomic.Int64
			s.Progress = func(RunKey, *sim.Result, time.Duration) { narrated.Add(1) }
			orig, _, prof, err := s.Workload(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if n := narrated.Load(); n != 1 {
				t.Fatalf("Workload narrated %d cells, want 1 (the in-order base cell)", n)
			}
			gets := s.PoolStats().Gets
			shared, err := s.Run(b, sim.InOrder, VarBase)
			if err != nil {
				t.Fatal(err)
			}
			if d := s.PoolStats().Gets - gets; d != 0 {
				t.Errorf("Run of the base cell after Workload took %d machines from the pool, want 0", d)
			}
			if n := narrated.Load(); n != 1 {
				t.Errorf("Run of the base cell after Workload fired Progress (%d calls in all)", n)
			}
			if shared.PCCount != nil || shared.CallEdges != nil {
				t.Error("shared base cell keeps the profile-only fields")
			}

			fresh, err := s.RunInstrumented(b, sim.InOrder, VarBase, func(*sim.Machine) {})
			if err != nil {
				t.Fatal(err)
			}
			if fresh == shared {
				t.Fatal("RunInstrumented returned the shared cell instead of simulating")
			}
			if !reflect.DeepEqual(shared, fresh) {
				t.Error("shared base cell differs from a fresh unprofiled run")
			}

			want, err := profile.CollectContext(ctx, orig, s.MachineConfig(sim.InOrder))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prof, want) {
				t.Error("profile built from the shared run differs from profile.CollectContext")
			}
		})
	}
}
