package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"ssp/internal/check"
	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// TestSchedulerInvariantsKernels checks the OOO scheduler invariants
// (AttachSchedulerCheck) on every cycle of every test-scale benchmark,
// baseline and SSP-adapted.
func TestSchedulerInvariantsKernels(t *testing.T) {
	s := exp.NewSuite(exp.ScaleTest)
	for _, bench := range exp.Benchmarks() {
		for _, v := range []exp.Variant{exp.VarBase, exp.VarSSP} {
			var checkErr func() error
			_, err := s.RunInstrumented(bench, sim.OOO, v, func(m *sim.Machine) {
				checkErr = sim.AttachSchedulerCheck(m)
			})
			if cerr := checkErr(); cerr != nil {
				t.Fatalf("%s/%s: %v", bench, v, cerr)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, v, err)
			}
		}
	}
}

// TestSchedulerInvariantsRandom checks the OOO scheduler invariants on
// seeded random programs, original and SSP-adapted: they reach
// function-unit contention, mispredict-blocked dispatch, chk.c drains and
// multi-source records the kernels do not.
func TestSchedulerInvariantsRandom(t *testing.T) {
	n := int64(48)
	if testing.Short() {
		n = 8
	}
	cfg := check.Configs(true)[1]
	for seed := int64(0); seed < n; seed++ {
		p := workloads.RandomProgram(seed)
		prof, err := profile.Collect(p, check.Configs(true)[0])
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), fmt.Sprintf("seed%d", seed))
		if err != nil {
			t.Fatalf("seed %d: adapt: %v", seed, err)
		}
		for _, prog := range []*ir.Program{p, adapted} {
			img, err := ir.Link(prog)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.New(cfg, img)
			checkErr := sim.AttachSchedulerCheck(m)
			_, err = m.Run()
			if cerr := checkErr(); cerr != nil {
				t.Fatalf("seed %d: %v", seed, cerr)
			}
			if err != nil && !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}
