package sim

import (
	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
)

// wrec is one in-flight instruction in an OOO window. Records live inside the
// window's ring buffer and refer to each other by ring slot, so dispatching
// allocates nothing.
type wrec struct {
	fu  decode.FUClass
	lat int64

	issued bool
	doneAt int64

	memKind uint8
	memAddr uint64
	memID   int

	// waiting counts the record's producers that have not issued yet, and
	// readyAcc folds the doneAt of those that have; the record's slot in
	// window.ready holds readyAcc once waiting reaches zero.
	waiting  int32
	readyAcc int64
	// consumers heads this record's list of consumer edges: one edge per
	// source operand of a younger record dispatched while this one was
	// unissued. An edge is consumer slot*decode.MaxUses + source index
	// (Predecode enforces the bound), and nextEdge[i] links the edge of
	// source i into its producer's list, so the lists need no storage
	// beyond the records.
	consumers int32
	nextEdge  [decode.MaxUses]int32
}

// notReady is the ready cycle of a record with an unissued producer, and
// the wake cycle of a window whose reservation-station view is empty.
const notReady = ffNoEvent

// window is a per-thread reorder buffer: dispatch appends, issue picks
// data-ready records among the oldest RSSize unissued ones, retirement pops
// from the head in order.
//
// Records are stored in a fixed power-of-two ring indexed by absolute
// dispatch position: positions [headAbs, tailAbs) are live, and position a
// lives at recs[a&mask]. A rename reference below headAbs points at a
// retired record — retirement requires issued && doneAt <= now, so a retired
// producer is always satisfied and the reference needs no storage to prove
// it.
//
// Scheduling is event-driven, so no per-cycle path walks the window:
//
//   - The unissued records form an age-ordered singly linked list over ring
//     slots (uhead, utail, next); its first RSSize entries are the
//     reservation-station view.
//   - ready[slot] is the cycle from which the record's operands are all
//     available: notReady while a producer is unissued, else the latest
//     producer doneAt. Producers that already issued are folded in at
//     dispatch; the others get a consumer edge, and issuing a producer walks
//     its edges. A record can issue at cycle now iff ready[slot] <= now.
//   - wake is the minimum ready cycle over the view, kept exact: the issue
//     scan recomputes it over the view it leaves behind, and dispatch folds
//     in a record that joins the view. Before wake nothing in the view can
//     issue, so issue returns at once.
//   - done is a min-heap of the doneAt values of issued records; after
//     popping completed ones its top is the window's next completion, the
//     fast-forward core's event.
type window struct {
	recs    []wrec
	ready   []int64
	next    []int32
	done    eventHeap
	mask    int64
	headAbs int64
	tailAbs int64
	cap     int

	uhead, utail int32
	nUnissued    int
	wake         int64

	rename [ir.NumLocs]int64
	// blocked is the ring slot of a mispredicted branch (-1 = none) that
	// stalls dispatch until it issues; the misprediction penalty is charged
	// when it resolves.
	blocked int32
	// haltAfterDrain stops dispatch and ends the thread once every
	// dispatched instruction has issued and retired. Both halt and kill
	// use it: a speculative thread's context is only freed when its
	// in-flight work (its prefetches!) has left the pipe, matching
	// retirement-stage thread termination.
	haltAfterDrain bool
	// waitDrain blocks dispatch until the window empties: a taken chk.c
	// raises its exception at the retirement stage, squashing younger
	// in-flight work — "speculative threads can only be spawned at the
	// retirement stage of the pipeline ... assessed with similar penalty
	// to exception handling that incurs pipeline flushes" (§4.4.1). The
	// drain is what makes SSP far less profitable on the OOO model.
	waitDrain bool
}

// reset returns w restored to an empty window of the given capacity, reusing
// the ring when it is large enough and allocating one (also on a nil
// receiver) when it is not. Threads keep their window across kill/start
// cycles, so steady-state spawning reuses the same ring.
func (w *window) reset(capacity int) *window {
	ringCap := 1
	for ringCap < capacity {
		ringCap <<= 1
	}
	if w == nil || len(w.recs) < ringCap {
		w = &window{
			recs:  make([]wrec, ringCap),
			ready: make([]int64, ringCap),
			next:  make([]int32, ringCap),
			done:  make([]int64, 0, ringCap),
		}
	}
	w.mask = int64(len(w.recs) - 1)
	w.cap = capacity
	w.headAbs, w.tailAbs = 0, 0
	w.uhead, w.utail, w.nUnissued = -1, -1, 0
	w.wake = notReady
	w.done = w.done[:0]
	w.blocked = -1
	w.haltAfterDrain, w.waitDrain = false, false
	for i := range w.rename {
		w.rename[i] = -1
	}
	return w
}

func (w *window) size() int  { return int(w.tailAbs - w.headAbs) }
func (w *window) full() bool { return w.tailAbs-w.headAbs >= int64(w.cap) }

// at returns the record at absolute position a, which must be in
// [headAbs, tailAbs).
func (w *window) at(a int64) *wrec { return &w.recs[a&w.mask] }

// dispatch claims the ring slot at tailAbs for an instruction of class d,
// links it to its producers through the rename table, renames its
// destinations, and appends it to the unissued list, returning the slot.
// The caller has checked the window is not full.
func (w *window) dispatch(d *decode.Decoded, lat int64, rsSize int) int32 {
	a := w.tailAbs
	s := int32(a & w.mask)
	r := &w.recs[s]
	*r = wrec{fu: d.FU, lat: lat, consumers: -1}
	for i, loc := range d.Uses {
		pa := w.rename[loc]
		if pa < w.headAbs {
			continue // no producer in flight, or a retired one
		}
		p := w.at(pa)
		if p.issued {
			r.readyAcc = max(r.readyAcc, p.doneAt)
			continue
		}
		r.nextEdge[i] = p.consumers
		p.consumers = s*decode.MaxUses + int32(i)
		r.waiting++
	}
	ready := r.readyAcc
	if r.waiting > 0 {
		ready = notReady
	}
	w.ready[s] = ready
	for _, loc := range d.Defs {
		w.rename[loc] = a
	}
	w.tailAbs = a + 1

	w.next[s] = -1
	if w.utail < 0 {
		w.uhead = s
	} else {
		w.next[w.utail] = s
	}
	w.utail = s
	if w.nUnissued < rsSize {
		// The record joins the reservation-station view.
		w.wake = min(w.wake, ready)
	}
	w.nUnissued++
	return s
}

// complete records that the record in slot s issued with completion cycle
// doneAt: its consumers fold doneAt into their ready cycles, and doneAt
// joins the completion heap. Heap entries at or below now are popped first
// (eventHeap.push), which keeps the heap no larger than the window: every
// entry left is a record still in flight.
func (w *window) complete(s int32, doneAt, now int64) {
	r := &w.recs[s]
	r.issued = true
	r.doneAt = doneAt
	for e := r.consumers; e >= 0; {
		cs := e / decode.MaxUses
		c := &w.recs[cs]
		e = c.nextEdge[e%decode.MaxUses]
		c.readyAcc = max(c.readyAcc, doneAt)
		if c.waiting--; c.waiting == 0 {
			w.ready[cs] = c.readyAcc
		}
	}
	w.done.push(doneAt, now)
}

// runOOO is the 16-stage out-of-order model: per-thread 255-entry windows
// with register renaming, an 18-entry reservation-station view (only the
// oldest 18 unissued records are wakeup candidates), in-order retirement,
// resolve-time branch-misprediction charging, and dispatch serialization at
// chk.c (spawning happens at the retirement end of the pipe and is assessed
// an exception-style flush, §4.4.1).
func (m *Machine) runOOO() {
	main := m.main()
	main.win = main.win.reset(m.Cfg.ROBSize)
	var sel [maxSelect]*Thread
	// The configuration is immutable for the whole run; hoisted as in
	// runInOrder.
	maxCycles := m.Cfg.MaxCycles
	cfgIntU, cfgMemU, cfgBrU, cfgFpU := m.Cfg.IntUnits, m.Cfg.MemPorts, m.Cfg.BrUnits, m.Cfg.FPUnits
	issueWidth := m.Cfg.IssueWidth
	retireWidth := m.Cfg.RetireWidth
	threadsPerCycle := m.Cfg.ThreadsPerCycle
	fastForward := m.Cfg.FastForward

	for !m.mainDone {
		if m.now >= maxCycles {
			m.res.TimedOut = true
			return
		}
		if m.now&63 == 0 && m.stop.Load() {
			// Cancelled via RunContext: bail between cycles, polled every
			// 64 cycles as in runInOrder.
			return
		}
		m.now++

		// Retire; a drained speculative thread that executed kill frees
		// its context here (retirement-stage termination). With no live
		// speculative thread only main can retire.
		retired := false
		retireSet := m.threads
		if m.liveSpec == 0 {
			retireSet = m.threads[:1]
		}
		for _, t := range retireSet {
			if !t.active || t.win == nil {
				continue
			}
			w := t.win
			for k := 0; k < retireWidth && w.headAbs < w.tailAbs; k++ {
				r := w.at(w.headAbs)
				if !r.issued || r.doneAt > m.now {
					break
				}
				w.headAbs++
				retired = true
			}
			if w.haltAfterDrain && w.size() == 0 && t.spec {
				m.killThread(t)
			}
		}

		// Select threads (main first) for issue and dispatch bandwidth.
		n := 0
		sel[n] = main
		n++
		if m.liveSpec > 0 {
			for scan, picked := 0, 0; scan < len(m.threads) && picked < threadsPerCycle-1 && n < len(sel); scan++ {
				// m.rr moves on every pick, so the index is recomputed from
				// it each iteration; rr and scan are both < len, so one
				// conditional subtract replaces the modulo.
				idx := m.rr + scan
				if idx >= len(m.threads) {
					idx -= len(m.threads)
				}
				t := m.threads[idx]
				if t == main || !t.active {
					continue
				}
				sel[n] = t
				n++
				picked++
				if m.rr = t.idx + 1; m.rr == len(m.threads) {
					m.rr = 0
				}
			}
		}
		slots := issueWidth
		if n > 1 {
			slots /= n
		}

		// Issue (wakeup/select).
		intU, memU, brU, fpU := cfgIntU, cfgMemU, cfgBrU, cfgFpU
		issuedMain, issuedTotal := 0, 0
		for ti := 0; ti < n; ti++ {
			t := sel[ti]
			issued := m.issueOOO(t, slots, &intU, &memU, &brU, &fpU)
			issuedTotal += issued
			if t == main {
				issuedMain = issued
			}
		}

		// Dispatch (decode/rename + architectural execution).
		dispatched := 0
		for ti := 0; ti < n; ti++ {
			t := sel[ti]
			dispatched += m.dispatchOOO(t, slots)
		}

		// Main-thread completion: halt dispatched and window drained.
		if main.win.haltAfterDrain && main.win.size() == 0 {
			m.mainDone = true
		}
		stats := CycleStats{IssuedMain: issuedMain}
		if m.statsDefault {
			// Devirtualized default stats recorder (same effect as the
			// interface call below, minus the dynamic dispatch), with the
			// dominant case inlined as in runInOrder.
			if issuedMain > 0 && m.fills.latest <= m.now {
				m.res.Breakdown[CatExec]++
			} else {
				m.accountCycle(main, issuedMain, false, 0)
			}
			m.recordUtilization()
		} else if m.cycle != nil {
			m.cycle.Cycle(m, main, stats)
		}
		if fastForward && !retired && issuedTotal == 0 && dispatched == 0 && !m.mainDone {
			m.fastForwardOOO(main, stats)
		}
	}
}

// issueOOO issues up to slots data-ready records from the oldest RSSize
// unissued window entries, oldest first.
func (m *Machine) issueOOO(t *Thread, slots int, intU, memU, brU, fpU *int) int {
	if !t.active || t.win == nil {
		return 0
	}
	w := t.win
	now := m.now
	if w.wake > now {
		return 0 // nothing in the view is ready yet
	}
	rsSize := m.Cfg.RSSize
	issued := 0
	// One walk issues among the candidates — the first rsSize entries as
	// the scan found them — and recomputes wake over the first rsSize
	// entries it leaves behind, which reach past the candidates by as many
	// records as issued.
	wake := notReady
	pos, kept := 0, 0
	prev := int32(-1)
	for s := w.uhead; s >= 0 && kept < rsSize; {
		next := w.next[s]
		ready := w.ready[s]
		if pos < rsSize && issued < slots && ready <= now && takeFU(w.recs[s].fu, intU, memU, brU, fpU) {
			m.issueRec(t, w, s)
			issued++
			// Unlink s; prev stays the last surviving entry.
			if prev < 0 {
				w.uhead = next
			} else {
				w.next[prev] = next
			}
			if w.utail == s {
				w.utail = prev
			}
			w.nUnissued--
		} else {
			wake = min(wake, ready)
			kept++
			prev = s
		}
		pos++
		s = next
	}
	w.wake = wake
	return issued
}

// takeFU claims a unit of the given class from this cycle's pool, reporting
// false when none is left.
func takeFU(fu decode.FUClass, intU, memU, brU, fpU *int) bool {
	var u *int
	switch fu {
	case decode.FUInt:
		u = intU
	case decode.FUMem:
		u = memU
	case decode.FUBr:
		u = brU
	case decode.FUFP:
		u = fpU
	default:
		return true
	}
	if *u == 0 {
		return false
	}
	*u--
	return true
}

// issueRec issues the record in ring slot s: it starts the memory access or
// the execution latency, wakes the record's consumers, and resolves a
// blocked mispredicted branch.
func (m *Machine) issueRec(t *Thread, w *window, s int32) {
	r := &w.recs[s]
	var doneAt int64
	switch r.memKind {
	case memLoad:
		acc := m.Hier.Access(r.memID, r.memAddr, m.now, true)
		doneAt = m.now + acc.Latency
		if acc.Level != mem.L1 && m.cycle != nil && !t.spec {
			// Only the cycle hook's accounting of the main thread reads
			// the fills.
			m.fills.add(doneAt, acc.Level, m.now)
		}
	case memStore:
		m.Hier.Access(r.memID, r.memAddr, m.now, true)
		doneAt = m.now + 1
	case memPrefetch:
		m.Hier.Prefetch(r.memID, r.memAddr, m.now)
		doneAt = m.now + 1
	default:
		doneAt = m.now + r.lat
	}
	w.complete(s, doneAt, m.now)
	if w.blocked == s {
		// Mispredicted branch resolves: refetch after the flush.
		w.blocked = -1
		t.frontStallUntil = doneAt + m.Cfg.MispredictPenalty
	}
}

// dispatchOOO decodes, renames, and architecturally executes up to slots
// instructions in program order, returning how many it dispatched.
func (m *Machine) dispatchOOO(t *Thread, slots int) int {
	if !t.active || t.win == nil {
		return 0
	}
	rsSize := m.Cfg.RSSize
	for k := 0; k < slots; k++ {
		w := t.win
		if t.frontStallUntil > m.now || w.blocked >= 0 || w.haltAfterDrain || w.full() {
			return k
		}
		if w.waitDrain {
			if w.size() > 0 {
				return k
			}
			w.waitDrain = false
		}
		pc := t.pc
		d := &m.code[pc]
		if m.steps != nil {
			if s := m.steps[pc]; s != nil {
				// Pure-step fast path: no memory access, no control
				// transfer, no halt — the record claims its ring slot and
				// renames exactly as below, minus the archEffect round-trip.
				if m.exec != nil {
					m.exec.Exec(m, t, pc)
				}
				s(&t.Ctx)
				t.instrs++
				killed := false
				if t.spec {
					m.res.SpecInstrs++
					// >= for the same reason as the table path below.
					if t.instrs >= m.Cfg.MaxSpecInstrs {
						killed = true
					}
				} else {
					m.res.MainInstrs++
				}
				w.dispatch(d, m.lat[d.Lat], rsSize)
				if killed {
					w.haltAfterDrain = true
					return k + 1
				}
				t.pc = pc + 1
				continue
			}
		}
		ef := m.execArch(t, pc)
		t.instrs++
		if t.spec {
			m.res.SpecInstrs++
			// >= for the same reason as the in-order engine: the activation
			// never exceeds the certified MaxSpecInstrs budget.
			if t.instrs >= m.Cfg.MaxSpecInstrs {
				ef.kill = true
			}
		} else {
			m.res.MainInstrs++
		}

		// full() above guarantees the ring slot at tailAbs is free.
		s := w.dispatch(d, m.lat[d.Lat], rsSize)
		if !ef.nullified && ef.memKind != memNone {
			r := &w.recs[s]
			r.memKind, r.memAddr, r.memID = ef.memKind, ef.memAddr, ef.memID
		}

		if ef.brCond {
			if m.Pred.PredictAndTrain(uint64(pc), ef.brTaken && !ef.nullified) {
				m.res.Mispredicts++
				w.blocked = s
			}
		}
		if d.Op == ir.OpChk && ef.nextPC != pc+1 {
			// Taken chk.c: the exception is recognized at retirement, so
			// the stub cannot dispatch until everything older has left
			// the pipe, and the refetch pays the flush penalty.
			w.waitDrain = true
			t.frontStallUntil = m.now + m.Cfg.SpawnFlushPenalty
		}
		if ef.kill || ef.halt {
			if ef.kill && !t.spec {
				// thread_kill_self on the non-speculative thread. Drain and
				// end the run like a halt (so the in-order and OOO models
				// agree on when it stops), but flag the violation so
				// RunProgram reports it instead of silently succeeding.
				m.res.MainKilled = true
			}
			w.haltAfterDrain = true
			return k + 1
		}
		t.pc = ef.nextPC
		if ef.nextPC != pc+1 {
			return k + 1 // control transfer ends the fetch bundle
		}
	}
	return slots
}
