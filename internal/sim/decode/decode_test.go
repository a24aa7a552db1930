package decode

import (
	"testing"

	"ssp/internal/ir"
)

// TestOperandBounds predecodes every opcode in every addressing form with
// every operand field set to a real (not hardwired) location and a live
// qualifying predicate, so each form reads and writes as many locations as
// it can. None may exceed MaxUses/MaxDefs, and the widest forms must reach
// them: the bounds are tight, not merely safe.
func TestOperandBounds(t *testing.T) {
	var maxU, maxD int
	for op := ir.Op(0); op < ir.NumOps; op++ {
		for form := 0; form < 8; form++ {
			in := ir.Instr{
				Op: op, Qp: 5,
				Rd: 10, Ra: 11, Rb: 12,
				Pd1: 6, Pd2: 7, Bd: 1, Bs: 2,
				Fd: 10, Fa: 11, Fb: 12, Fc: 13,
				UseImm: form&1 != 0,
			}
			if form&2 != 0 {
				in.PostInc = 8
			}
			if form&4 != 0 {
				in.Target = "f"
			}
			dp := Predecode(&ir.Image{Code: []ir.Linked{{I: in, Tgt: -1}}})
			d := &dp.Code[0]
			if len(d.Uses) > MaxUses || len(d.Defs) > MaxDefs {
				t.Errorf("%v form %d: %d uses, %d defs exceed %d/%d", op, form, len(d.Uses), len(d.Defs), MaxUses, MaxDefs)
			}
			maxU = max(maxU, len(d.Uses))
			maxD = max(maxD, len(d.Defs))
		}
	}
	if maxU != MaxUses || maxD != MaxDefs {
		t.Errorf("widest forms: %d uses, %d defs; bounds are %d/%d", maxU, maxD, MaxUses, MaxDefs)
	}
}

// TestCheckOperandsRejects: the bound check Predecode panics on names the
// offending instruction and accepts sets at the bound.
func TestCheckOperandsRejects(t *testing.T) {
	if err := checkOperands(3, ir.OpFMA, MaxUses, MaxDefs); err != nil {
		t.Fatalf("at the bound: %v", err)
	}
	for _, c := range []struct{ u, d int }{{MaxUses + 1, 0}, {0, MaxDefs + 1}} {
		if err := checkOperands(3, ir.OpAdd, c.u, c.d); err == nil {
			t.Errorf("%d uses, %d defs accepted", c.u, c.d)
		}
	}
}
