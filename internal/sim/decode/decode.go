// Package decode is the predecode stage of the execution core: it lowers a
// linked ir.Image into a dense []Decoded sidecar exactly once per image, so
// that none of the engines (the functional interpreter, the in-order model,
// the OOO model) ever re-inspects ir.Instr on the per-dynamic-instruction hot
// path. Each Decoded carries:
//
//   - a direct handler index (H) — the engines' architectural execution is a
//     table dispatch, with the immediate/register addressing forms of the hot
//     ALU and compare opcodes split into separate handlers;
//   - the function-unit class and a config-independent latency class (the
//     machine resolves LatClass against its Config once, in a 5-entry table);
//   - all scalar operands copied out of the ir.Instr (registers, predicates,
//     immediates, displacements) plus the pre-resolved branch/spawn target;
//   - the use/def location sets, sub-sliced from two shared backing arrays so
//     scoreboard and rename walks stay on a contiguous allocation.
//
// A Program is immutable after Predecode and carries no machine state, so one
// predecoded image is safely shared by any number of machines across models
// and goroutines — exp.Suite caches one per (benchmark, variant) and runs
// every matrix cell against it.
package decode

import (
	"fmt"
	"sync"

	"ssp/internal/ir"
	"ssp/internal/sim/mem"
)

// FUClass groups opcodes by the function unit they occupy.
type FUClass uint8

const (
	FUNone FUClass = iota
	FUInt
	FUMem
	FUBr
	FUFP
)

// LatClass names an execution latency independently of machine configuration;
// the machine resolves it to cycles against its Config (MulLat, FPLat,
// LIBCopyLat) once at construction. Keeping the predecoded image
// config-independent is what lets one decode serve every machine model.
type LatClass uint8

const (
	// Lat1 is the single-cycle class (ALU, branches, memory issue).
	Lat1 LatClass = iota
	// Lat2 is the two-cycle class (setf/getf cross-file moves).
	Lat2
	// LatMul resolves to Config.MulLat.
	LatMul
	// LatFP resolves to Config.FPLat.
	LatFP
	// LatLIB resolves to Config.LIBCopyLat.
	LatLIB
	// NumLatClasses sizes the machine's resolution table.
	NumLatClasses
)

// Handler indexes the engines' architectural-execution dispatch table. The
// hot two-operand opcodes are split by addressing form (register vs
// immediate) so handlers read exactly the fields they need.
type Handler uint8

const (
	HNop Handler = iota
	HAdd
	HAddI
	HSub
	HSubI
	HMul
	HMulI
	HAnd
	HAndI
	HOr
	HOrI
	HXor
	HXorI
	HShl
	HShlI
	HShr
	HShrI
	HMov
	HMovI
	HCmp
	HCmpI
	HLd
	HLdPI // post-increment form: Imm carries the stride
	HSt
	HLfetch
	HBr
	HCall
	HCallB
	HRet
	HMovBR
	HMovBRFunc // address-of-function form: Tgt carries the entry PC
	HMovFromBR
	HChk
	HSpawn
	HLiw
	HLir
	HKill
	HHalt
	HFAdd
	HFSub
	HFMul
	HFMA
	HFLd
	HFSt
	HFCmp
	HSetF
	HGetF
	// NumHandlers sizes the dispatch table.
	NumHandlers
)

// Decoded is one predecoded instruction: everything the engines need at
// execution time, resolved once. Liw/Lir slot immediates are pre-masked to
// the live-in buffer size; the post-increment stride of HLdPI rides in Imm
// (plain loads never use it).
type Decoded struct {
	H   Handler
	FU  FUClass
	Lat LatClass
	Op  ir.Op
	Qp  ir.PR
	Rd  ir.Reg
	Ra  ir.Reg
	Rb  ir.Reg
	Pd1 ir.PR
	Pd2 ir.PR
	Bd  ir.BR
	Bs  ir.BR
	Fd  ir.FR
	Fa  ir.FR
	Fb  ir.FR
	Fc  ir.FR
	// Cond is the comparison relation for HCmp/HCmpI/HFCmp.
	Cond ir.Cond

	// Tgt is the resolved target PC for branch-like handlers (-1 if none)
	// and ID the stable instruction identity (memory statistics key).
	Tgt int32
	ID  int32

	Imm  int64
	Disp int64

	// Uses and Defs are the location sets the scoreboard and rename stages
	// walk; they alias the Program's shared backing arrays.
	Uses []ir.Loc
	Defs []ir.Loc
}

// MaxUses and MaxDefs bound every instruction's location sets: the widest
// reader is a predicated fma (qp plus three FP sources), the widest writers
// are compares and post-increment loads (two destinations). Predecode enforces
// both, so fixed-size operand records — threaded.StepInfo and the OOO
// window's per-source consumer edges — hold every instruction whole.
const (
	MaxUses = 4
	MaxDefs = 2
)

// checkOperands reports an instruction whose location sets exceed MaxUses or
// MaxDefs.
func checkOperands(pc int, op ir.Op, nUses, nDefs int) error {
	if nUses > MaxUses || nDefs > MaxDefs {
		return fmt.Errorf("decode: %v at pc %d has %d uses and %d defs, bound is %d and %d", op, pc, nUses, nDefs, MaxUses, MaxDefs)
	}
	return nil
}

// Program is an immutable predecoded image.
type Program struct {
	// Img is the linked image the sidecar was built from (entry PC, symbol
	// tables, instruction text for tracing, initial data).
	Img *ir.Image
	// Code is the dense sidecar, indexed by PC.
	Code []Decoded
	// Mem is the data segment pre-paged into the simulator's memory layout,
	// so machine construction installs it by page copy instead of a word-at-
	// a-time map walk.
	Mem *mem.Snapshot
	// MaxID is the largest static instruction ID in the image; machines
	// presize their dense per-load stat tables from it so the counting path
	// never allocates.
	MaxID int

	// thrOnce/thr cache the threaded-code compile of this image (see
	// internal/sim/threaded). The sidecar is config-independent and
	// immutable like the Program itself, so it is built at most once and
	// shared by every machine and goroutine that executes this image. It is
	// held as an opaque any to keep decode a leaf package.
	thrOnce sync.Once
	thr     any
}

// Threaded returns the per-image threaded-code sidecar, invoking build at
// most once over the Program's lifetime (concurrent callers block on the
// first build). The cache key is the Program identity: exp.Suite memoizes
// one Program per (benchmark, variant), so the compile is amortized exactly
// like the predecode itself.
func (p *Program) Threaded(build func() any) any {
	p.thrOnce.Do(func() { p.thr = build() })
	return p.thr
}

// Classify maps an opcode to its function-unit and latency classes.
func Classify(op ir.Op) (FUClass, LatClass) {
	switch op {
	case ir.OpNop, ir.OpKill, ir.OpHalt:
		return FUNone, Lat1
	case ir.OpMul:
		return FUInt, LatMul
	case ir.OpMov, ir.OpMovI, ir.OpCmp, ir.OpMovFromBR, ir.OpMovBR,
		ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		return FUInt, Lat1
	case ir.OpLd, ir.OpSt, ir.OpLfetch, ir.OpFLd, ir.OpFSt:
		return FUMem, Lat1 // loads get their latency from the hierarchy
	case ir.OpLiw, ir.OpLir:
		return FUMem, LatLIB
	case ir.OpBr, ir.OpCall, ir.OpCallB, ir.OpRet, ir.OpChk, ir.OpSpawn:
		return FUBr, Lat1
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMA, ir.OpFCmp:
		return FUFP, LatFP
	case ir.OpSetF, ir.OpGetF:
		return FUInt, Lat2 // cross-file moves take an extra cycle
	}
	return FUInt, Lat1
}

// aluHandlers maps the two-operand ALU opcodes to their register-form
// handler; the immediate form is the next index.
var aluHandlers = map[ir.Op]Handler{
	ir.OpAdd: HAdd, ir.OpSub: HSub, ir.OpMul: HMul, ir.OpAnd: HAnd,
	ir.OpOr: HOr, ir.OpXor: HXor, ir.OpShl: HShl, ir.OpShr: HShr,
}

// handlerOf selects the handler index for one instruction, splitting the
// addressing forms that have dedicated handlers.
func handlerOf(in *ir.Instr) Handler {
	if h, ok := aluHandlers[in.Op]; ok {
		if in.UseImm {
			return h + 1
		}
		return h
	}
	switch in.Op {
	case ir.OpNop:
		return HNop
	case ir.OpMov:
		return HMov
	case ir.OpMovI:
		return HMovI
	case ir.OpCmp:
		if in.UseImm {
			return HCmpI
		}
		return HCmp
	case ir.OpLd:
		if in.PostInc != 0 {
			return HLdPI
		}
		return HLd
	case ir.OpSt:
		return HSt
	case ir.OpLfetch:
		return HLfetch
	case ir.OpBr:
		return HBr
	case ir.OpCall:
		return HCall
	case ir.OpCallB:
		return HCallB
	case ir.OpRet:
		return HRet
	case ir.OpMovBR:
		if in.Target != "" {
			return HMovBRFunc
		}
		return HMovBR
	case ir.OpMovFromBR:
		return HMovFromBR
	case ir.OpChk:
		return HChk
	case ir.OpSpawn:
		return HSpawn
	case ir.OpLiw:
		return HLiw
	case ir.OpLir:
		return HLir
	case ir.OpKill:
		return HKill
	case ir.OpHalt:
		return HHalt
	case ir.OpFAdd:
		return HFAdd
	case ir.OpFSub:
		return HFSub
	case ir.OpFMul:
		return HFMul
	case ir.OpFMA:
		return HFMA
	case ir.OpFLd:
		return HFLd
	case ir.OpFSt:
		return HFSt
	case ir.OpFCmp:
		return HFCmp
	case ir.OpSetF:
		return HSetF
	case ir.OpGetF:
		return HGetF
	}
	return HNop
}

// Predecode lowers a linked image into its dense sidecar. The result is
// immutable and safe for concurrent sharing. It panics on an instruction
// whose location sets exceed MaxUses or MaxDefs: ir's operand forms never
// produce one, so it can only mean an opcode was added without widening the
// engines' fixed operand records.
func Predecode(img *ir.Image) *Program {
	code := make([]Decoded, len(img.Code))
	// Two shared backing arrays keep every instruction's use/def sets on
	// contiguous memory instead of len(Code) tiny allocations. The arrays
	// may reallocate while growing, so per-PC offsets are recorded first and
	// the sub-slices bound after the final backing is known.
	var uses, defs []ir.Loc
	offs := make([][4]int, len(img.Code))
	for pc := range img.Code {
		in := &img.Code[pc].I
		u0 := len(uses)
		uses = in.AppendUses(uses)
		d0 := len(defs)
		defs = in.AppendDefs(defs)
		if err := checkOperands(pc, in.Op, len(uses)-u0, len(defs)-d0); err != nil {
			panic(err)
		}
		offs[pc] = [4]int{u0, len(uses), d0, len(defs)}
	}
	for pc := range img.Code {
		l := &img.Code[pc]
		in := &l.I
		d := &code[pc]
		d.H = handlerOf(in)
		d.FU, d.Lat = Classify(in.Op)
		d.Op = in.Op
		d.Qp = in.Qp
		d.Rd, d.Ra, d.Rb = in.Rd, in.Ra, in.Rb
		d.Pd1, d.Pd2 = in.Pd1, in.Pd2
		d.Bd, d.Bs = in.Bd, in.Bs
		d.Fd, d.Fa, d.Fb, d.Fc = in.Fd, in.Fa, in.Fb, in.Fc
		d.Cond = in.Cond
		d.Tgt = l.Tgt
		d.ID = int32(in.ID)
		d.Imm = in.Imm
		d.Disp = in.Disp
		switch d.H {
		case HLdPI:
			d.Imm = in.PostInc
		case HLiw, HLir:
			d.Imm = in.Imm & (ir.LIBSlots - 1)
		}
		o := offs[pc]
		d.Uses = uses[o[0]:o[1]:o[1]]
		d.Defs = defs[o[2]:o[3]:o[3]]
	}
	maxID := 0
	for pc := range code {
		if id := int(code[pc].ID); id > maxID {
			maxID = id
		}
	}
	return &Program{Img: img, Code: code, Mem: mem.NewSnapshot(img.Data), MaxID: maxID}
}
