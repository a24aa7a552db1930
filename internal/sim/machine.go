package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"ssp/internal/ir"
	"ssp/internal/sim/bpred"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
)

// libSlots is the number of live-in buffer slots per context (the modelled
// RSE backing-store window). The paper's slices need ~3-5 live-ins
// (Table 2).
const libSlots = ir.LIBSlots

// Thread is one hardware thread context. Its architectural state — register
// files, predicates, branch registers, live-in buffers — is the embedded
// threaded.Ctx, the same structure the closure-threaded execution core's
// compiled closures write, so the engines can run specialized steps against
// thread state with no copying or indirection. Ctx.Mem stays nil on engine
// threads (their memory instructions take the table path, where the
// hierarchy timing lives).
type Thread struct {
	idx    int
	active bool
	spec   bool

	threaded.Ctx
	pc int

	// resumePC is where the main thread resumes after a chk.c stub, set
	// when the exception is taken and consumed by the stub's spawn
	// (Figure 7: "The main thread resumes its normal execution after
	// executing the stub block as its recovery code").
	resumePC int

	// frontStallUntil blocks issue/dispatch until the given cycle
	// (misprediction refill, spawn flush, thread startup).
	frontStallUntil int64
	// lastChkTaken rate-limits chk.c exceptions (Config.SpawnCooldown).
	lastChkTaken int64

	instrs int64

	// In-order scoreboard: per-location ready cycle and, for locations
	// produced by an outstanding load, the satisfying level + 1. One array
	// of pairs rather than two parallel arrays: the issue loop touches
	// ready and loadLevel of the same location back to back, so pairing
	// them halves the bounds checks and keeps both on one cache line.
	sb [ir.NumLocs]sbEntry

	// OOO state (nil on the in-order model).
	win *window
}

// sbEntry is one in-order scoreboard slot: the cycle its location becomes
// ready and, while an outstanding load produces it, the satisfying memory
// level + 1 (0 for ALU results and L1 hits).
type sbEntry struct {
	ready     int64
	loadLevel uint8
}

// Context returns the hardware context index of the thread.
func (t *Thread) Context() int { return t.idx }

// Instrs returns how many instructions the thread has executed in its
// current activation (reset on every spawn). External oracles — the
// safety-budget hook in internal/check — read it from an ExecHooks callback,
// which fires before the count includes the instruction being executed.
func (t *Thread) Instrs() int64 { return t.instrs }

// Speculative reports whether the thread runs a p-slice rather than the main
// program.
func (t *Thread) Speculative() bool { return t.spec }

// fillTracker follows the main thread's outstanding cache fills — the
// loads it issued that missed L1 — for the Figure 10 classification of its
// cycles. The engines feed it only while a cycle hook is installed: the
// hook's accounting and the fast-forward core's jump bound, which exists
// only for that accounting, are its only readers.
// Both questions asked of it are O(1) in the number of fills:
//
//   - the deepest level with a fill outstanding at now is the deepest level
//     whose latest completion lies after now (last), and no fill is
//     outstanding at all iff the latest completion overall (latest) is at
//     or before now;
//   - the next fill completion after now, the event a fast-forward jump
//     must not cross, is the top of an eventHeap of completion cycles (it
//     holds only fills still in flight).
//
// The classification can change only at the per-level last times, so
// min{last[L] > now} alone would bound a jump exactly; the heap stays
// because it reproduces the established jump sequence, and with it the
// FastForwards count that the perfbench references pin.
type fillTracker struct {
	last   [mem.NumLevels]int64
	latest int64
	done   eventHeap
}

// reset forgets every fill, keeping the heap's backing array.
func (f *fillTracker) reset() {
	*f = fillTracker{done: f.done[:0]}
}

// add records a fill at level lvl completing at readyAt, issued at now.
func (f *fillTracker) add(readyAt int64, lvl mem.Level, now int64) {
	f.last[lvl] = max(f.last[lvl], readyAt)
	f.latest = max(f.latest, readyAt)
	f.done.push(readyAt, now)
}

// deepest returns the deepest level among fills outstanding at now, or
// (0, false) when none is.
func (f *fillTracker) deepest(now int64) (mem.Level, bool) {
	if f.latest <= now {
		return 0, false
	}
	lvl := mem.NumLevels - 1
	for f.last[lvl] <= now {
		lvl--
	}
	return lvl, true
}

// Machine simulates one program on one machine model. Its execution core is
// predecoded: architectural execution dispatches through a handler table over
// the dense decode.Decoded sidecar, never through ir.Instr.
type Machine struct {
	Cfg  Config
	Img  *ir.Image
	Mem  *mem.Memory
	Hier *mem.Hierarchy
	Pred *bpred.Predictor

	// code is the predecoded sidecar (shared, immutable) and lat the
	// machine's resolution of the config-independent latency classes.
	code []decode.Decoded
	lat  [decode.NumLatClasses]int64

	threads []*Thread
	now     int64
	res     Result
	// fills tracks the main thread's outstanding cache fills (only while a
	// cycle hook is installed).
	fills fillTracker
	// ef is execArch's scratch effect slot (see exec.go).
	ef archEffect

	// thr is the closure-threaded compile of the image (nil with
	// Config.Threaded off) and steps its per-PC pure-step array: for
	// instructions with no memory, control, or machine-level effect the
	// engines call the specialized closure instead of the dispatch table.
	// Both are shared and immutable, memoized on the decode.Program.
	thr      *threaded.Program
	steps    []threaded.Step
	stepInfo []threaded.StepInfo

	// exec and cycle are the instrumentation hook points (hooks.go). exec
	// is nil unless a tracer/profiler is attached; cycle defaults to the
	// stats recorder behind the Figure 10 breakdown and the utilization
	// histogram, and can be detached for pure-throughput runs. skip caches
	// cycle's CycleSkipper view (nil when cycle cannot bulk-credit), the
	// gate the fast-forward core checks before jumping. statsDefault
	// records that cycle is exactly the default stats recorder, letting
	// the cycle loops call it devirtualized.
	exec         ExecHooks
	cycle        CycleHooks
	skip         CycleSkipper
	statsDefault bool

	// noSpec suppresses all speculative-thread creation: chk.c never takes
	// its exception and spawn requests are counted but ignored. It is the
	// interpreter's explicit "no speculation" mode — unlike occupying the
	// spare contexts, it leaves the context-utilization accounting honest.
	noSpec bool

	// stop is the cancellation flag behind RunContext: an AfterFunc on the
	// run's context sets it, and both engines poll it on every 64th cycle,
	// so a cancelled run returns within 64 simulated cycles plus at most one
	// fast-forward hop. The poll costs one atomic load per 64 cycles.
	stop atomic.Bool

	mainDone bool
	rr       int // round-robin cursor over speculative threads
	// liveSpec counts active speculative threads, maintained at the single
	// activation/deactivation points (startThread/killThread). It lets the
	// per-cycle paths skip the thread-selection scan and index the
	// utilization histogram without walking every context; Conservation's
	// sum(SpecActiveHist) == Cycles invariant cross-checks it every run.
	liveSpec int
}

// New builds a machine for the image under the given configuration,
// predecoding the image privately. Callers running several machines over the
// same image should Predecode once and share it via NewPredecoded.
func New(cfg Config, img *ir.Image) *Machine {
	return NewPredecoded(cfg, decode.Predecode(img))
}

// Predecode lowers a linked image into the shareable form NewPredecoded
// consumes. The result is immutable: any number of machines, across models
// and goroutines, may execute it concurrently.
func Predecode(img *ir.Image) *decode.Program { return decode.Predecode(img) }

// ThreadedProgram returns the closure-threaded compile of a predecoded
// image, building it at most once per decode.Program (the compile is
// memoized on the sidecar, so sharing the decode shares the chains).
// Machines with Config.Threaded do this on Reset; exp.Suite calls it
// eagerly so matrix cells never pay the compile inside a timed run.
func ThreadedProgram(dp *decode.Program) *threaded.Program {
	return dp.Threaded(func() any { return threaded.Compile(dp) }).(*threaded.Program)
}

// NewPredecoded builds a machine over an already-predecoded image.
func NewPredecoded(cfg Config, dp *decode.Program) *Machine {
	m := &Machine{
		Mem:  mem.NewMemory(),
		Hier: mem.NewHierarchy(cfg.Mem),
		Pred: bpred.New(),
	}
	m.Reset(cfg, dp)
	return m
}

// Reset returns the machine to its just-constructed state over a (possibly
// different) configuration and predecoded image, reusing every allocation
// whose shape still fits: the memory's page frames and radix layout, the
// hierarchy (when the cache geometry is unchanged), the thread contexts and
// their per-thread buffers, and the branch predictor tables. A Reset machine
// runs bit-for-bit identically to a freshly constructed one — the
// check.HotPathEquivalence gate and the hot-path sweep enforce this — which
// is what lets exp.Suite pool machines across matrix cells.
//
// Results returned by earlier runs stay valid: Run detaches the hierarchy
// statistics, and Reset allocates fresh histogram/profile slices instead of
// clearing the ones previous Results still reference.
func (m *Machine) Reset(cfg Config, dp *decode.Program) {
	m.Cfg = cfg
	m.Img = dp.Img
	m.code = dp.Code
	if cfg.Threaded {
		m.thr = ThreadedProgram(dp)
		m.steps = m.thr.Steps
		m.stepInfo = m.thr.Info
	} else {
		m.thr = nil
		m.steps = nil
		m.stepInfo = nil
	}
	m.lat = [decode.NumLatClasses]int64{
		decode.Lat1:   1,
		decode.Lat2:   2,
		decode.LatMul: cfg.MulLat,
		decode.LatFP:  cfg.FPLat,
		decode.LatLIB: cfg.LIBCopyLat,
	}
	if mem.SameGeometry(m.Hier.Cfg, cfg.Mem) {
		m.Hier.Cfg = cfg.Mem
		m.Hier.Reset()
	} else {
		m.Hier = mem.NewHierarchy(cfg.Mem)
	}
	m.Hier.PresizeLoads(dp.MaxID + 1)
	m.Mem.Reset()
	m.Mem.InstallSnapshot(dp.Mem)
	m.Pred.Reset()
	if len(m.threads) != cfg.Contexts {
		m.threads = make([]*Thread, cfg.Contexts)
		for i := range m.threads {
			m.threads[i] = &Thread{idx: i, resumePC: -1, lastChkTaken: -1 << 40}
		}
	} else {
		for i, t := range m.threads {
			win := t.win
			*t = Thread{idx: i, resumePC: -1, lastChkTaken: -1 << 40}
			if cfg.Model == OOO {
				t.win = win
			}
		}
	}
	m.now = 0
	m.stop.Store(false)
	m.res = Result{}
	m.fills.reset()
	m.ef = archEffect{}
	m.exec = nil
	m.noSpec = false
	m.mainDone = false
	m.rr = 0
	m.liveSpec = 0
	m.SetCycleHooks(statsHooks{})
	if cfg.Profile {
		m.res.PCCount = make([]uint64, len(dp.Code))
		m.res.CallEdges = make(map[int]map[int]uint64)
		m.attachExec(profileHooks{})
	}
	// Buckets 0..Contexts: normally at most Contexts-1 speculative threads
	// exist (the main thread holds context 0), but a freed main context can
	// be rebound speculatively, so the histogram covers every context being
	// speculative. Sizing it Contexts (and guarding the index) silently
	// dropped that last bucket, breaking sum(SpecActiveHist) == Cycles.
	m.res.SpecActiveHist = make([]int64, cfg.Contexts+1)
}

// recordUtilization tallies the number of active speculative contexts this
// cycle. Every cycle lands in exactly one bucket, so the histogram always
// sums to Cycles (asserted by check.Conservation).
func (m *Machine) recordUtilization() {
	m.res.SpecActiveHist[m.liveSpec]++
}

// main returns the main thread (context 0).
func (m *Machine) main() *Thread { return m.threads[0] }

// freeContext returns an inactive context, or nil.
func (m *Machine) freeContext() *Thread {
	for _, t := range m.threads {
		if !t.active {
			return t
		}
	}
	return nil
}

// startThread initializes a speculative thread at the target PC, handing it
// the parent's outgoing live-in buffer — the inter-thread communication path
// through the RSE backing store (§2.1).
func (m *Machine) startThread(c *Thread, pc int, parent *Thread) {
	idx := c.idx
	// The OOO window keeps its backing arrays across the context's
	// lifetimes, so steady-state spawning allocates nothing.
	win := c.win
	*c = Thread{idx: idx, active: true, spec: true, pc: pc, resumePC: -1}
	m.liveSpec++
	c.InLIB = parent.OutLIB
	c.frontStallUntil = m.now + m.Cfg.SpawnStartup
	if m.Cfg.Model == OOO {
		c.win = win.reset(m.Cfg.ROBSize)
	}
}

// killThread frees a context. The thread's window is kept for reuse by the
// next thread started on this context.
func (m *Machine) killThread(t *Thread) {
	if t.active && t.spec {
		m.liveSpec--
	}
	t.active = false
}

// Run executes the program to completion of the main thread and returns the
// result. It dispatches on the configured model.
func (m *Machine) Run() (*Result, error) { return m.RunContext(context.Background()) }

// ErrInterrupted is returned by a run stopped with Interrupt when the run's
// context (if any) is still live — the interrupt, not the context, ended it.
var ErrInterrupted = errors.New("sim: run interrupted")

// Interrupt asks a running machine to stop. The engines poll the request
// every 64 cycles, so the run ends within 64 simulated cycles (plus at most
// one fast-forward hop) of the call — also when a hook of the machine's own
// makes it. It is safe to call from any goroutine. RunContext uses it as the
// context's AfterFunc; direct callers without a cancelled context get
// ErrInterrupted back from the run.
func (m *Machine) Interrupt() { m.stop.Store(true) }

// RunContext is Run under a context: when ctx is cancelled or its deadline
// expires, the engine stops within 64 simulated cycles (plus at most one
// fast-forward hop when the timing core is jumping) and RunContext returns
// nil and ctx.Err() instead of running on to the watchdog limit. A cancelled machine holds a half-finished run; Reset
// restores it completely (the hot-path equivalence gate proves Reset equals
// fresh construction), but pooling layers discard it anyway and only recycle
// machines from clean completions.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.stop.Store(false)
		cancel := context.AfterFunc(ctx, m.Interrupt)
		defer cancel()
	}
	m.main().active = true
	m.main().pc = m.Img.Entry
	switch m.Cfg.Model {
	case InOrder:
		m.runInOrder()
	case OOO:
		m.runOOO()
	default:
		return nil, fmt.Errorf("sim: unknown model %v", m.Cfg.Model)
	}
	if m.stop.Load() && !m.mainDone && !m.res.TimedOut {
		// The engine bailed out at the stop check; the context, not the
		// program, ended this run. (A run that completed or timed out in
		// the same cycle the context fired still reports its real outcome.)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	m.res.Cycles = m.now
	// Detach the statistics so the Result stays valid when the machine is
	// Reset and reused for another run (exp.Suite pools machines).
	m.res.Hier = m.Hier.DetachStats()
	m.res.FinalRegs = m.main().Regs
	m.res.MemChecksum = m.Mem.Checksum()
	r := m.res
	return &r, nil
}
