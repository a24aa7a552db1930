package sim

import (
	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
)

// runInOrder is the 12-stage in-order SMT pipeline: per-thread program-order
// issue gated by a register scoreboard (an instruction stalls when it uses
// the destination of an outstanding load — the Itanium use-stall the paper
// exploits, §4.3), shared function units, and shared issue bandwidth of two
// bundles per cycle from at most two threads.
func (m *Machine) runInOrder() {
	main := m.main()
	var sel [maxSelect]*Thread
	// The configuration is immutable for the whole run; hoisting the hot
	// fields out of the cycle loop keeps the per-cycle fixed cost — which
	// every issued instruction amortizes — down to real work.
	maxCycles := m.Cfg.MaxCycles
	cfgIntU, cfgMemU, cfgBrU, cfgFpU := m.Cfg.IntUnits, m.Cfg.MemPorts, m.Cfg.BrUnits, m.Cfg.FPUnits
	issueWidth := m.Cfg.IssueWidth
	fastForward := m.Cfg.FastForward
	steps := m.steps
	for !m.mainDone {
		if m.now >= maxCycles {
			m.res.TimedOut = true
			return
		}
		if m.now&63 == 0 && m.stop.Load() {
			// Cancelled via RunContext: bail between cycles (polled every
			// 64 cycles — one atomic load amortized over the window), so a
			// cancelled run overshoots by at most 64 cycles plus the jump
			// target of an in-progress fast-forward hop.
			return
		}
		m.now++
		intU, memU, brU, fpU := cfgIntU, cfgMemU, cfgBrU, cfgFpU

		// Thread selection: the non-speculative thread has priority; the
		// remaining bundle goes to speculative threads round-robin. With no
		// live speculative thread (every baseline cycle) the scan is skipped.
		n := 0
		sel[n] = main
		n++
		if m.liveSpec > 0 {
			for scan, picked := 0, 0; scan < len(m.threads) && picked < m.Cfg.ThreadsPerCycle-1 && n < len(sel); scan++ {
				// m.rr moves on every pick, so the index is recomputed from
				// it each iteration; rr and scan are both < len, so one
				// conditional subtract replaces the modulo.
				idx := m.rr + scan
				if idx >= len(m.threads) {
					idx -= len(m.threads)
				}
				t := m.threads[idx]
				if t == main || !t.active || t.frontStallUntil > m.now {
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

		issuedMain := 0
		issuedAny := false
		stallLevel := mem.Level(0)
		stalledOnLoad := false
		for ti := 0; ti < n; ti++ {
			t := sel[ti]
			for s := 0; s < slots; {
				// Dispatch straight into the batched pure-step lane when
				// the thread sits on a compiled step (the common case on
				// ALU-dense code), skipping the per-call issueInOrder
				// preamble; the lane and the table path are interchangeable
				// per instruction, so the split is invisible to results.
				var k int
				var cont, onLoad bool
				var lvl mem.Level
				if steps != nil && t.active && t.frontStallUntil <= m.now && steps[t.pc] != nil {
					k, cont, lvl, onLoad = m.issueStepsInOrder(t, slots-s, &intU, &memU, &brU, &fpU)
				} else {
					k, cont, lvl, onLoad = m.issueInOrder(t, slots-s, &intU, &memU, &brU, &fpU)
				}
				s += k
				if k > 0 {
					issuedAny = true
				}
				if t == main {
					issuedMain += k
					if onLoad {
						stalledOnLoad, stallLevel = true, lvl
					}
				}
				if !cont || m.mainDone {
					break
				}
			}
			if m.mainDone {
				break
			}
		}
		if m.statsDefault {
			// Devirtualized default stats recorder (same effect as the
			// interface call below, minus the dynamic dispatch), with the
			// dominant case inlined: a cycle that issued main instructions
			// with no outstanding fill is pure execution.
			if issuedMain > 0 && m.fills.latest <= m.now {
				m.res.Breakdown[CatExec]++
			} else {
				m.accountCycle(main, issuedMain, stalledOnLoad, stallLevel)
			}
			m.recordUtilization()
		} else if m.cycle != nil {
			m.cycle.Cycle(m, main, CycleStats{
				IssuedMain:    issuedMain,
				StalledOnLoad: stalledOnLoad,
				StallLevel:    stallLevel,
			})
		}
		if fastForward && !issuedAny && !m.mainDone {
			m.fastForwardInOrder(main, CycleStats{
				IssuedMain:    issuedMain,
				StalledOnLoad: stalledOnLoad,
				StallLevel:    stallLevel,
			})
		}
	}
}

// accountCycle classifies the cycle for the Figure 10 breakdown.
func (m *Machine) accountCycle(main *Thread, issuedMain int, stalledOnLoad bool, stallLevel mem.Level) {
	m.accountCycles(main, issuedMain, stalledOnLoad, stallLevel, 1)
}

// accountCycles classifies k consecutive identical cycles in one step — the
// bulk form behind both per-cycle accounting (k=1) and fast-forward stall
// crediting. The fast-forward core guarantees the classification is constant
// over the k cycles: it never jumps across a completion of one of main's
// outstanding fills, so the deepest outstanding level cannot change mid-span.
func (m *Machine) accountCycles(main *Thread, issuedMain int, stalledOnLoad bool, stallLevel mem.Level, k int64) {
	var cat Category
	switch {
	case issuedMain > 0:
		if _, any := m.fills.deepest(m.now); any {
			cat = CatCacheExec
		} else {
			cat = CatExec
		}
	case stalledOnLoad:
		cat = missCategory(stallLevel)
	case main.frontStallUntil > m.now:
		cat = CatOther
	default:
		if lvl, any := m.fills.deepest(m.now); any {
			cat = missCategory(lvl)
		} else {
			cat = CatOther
		}
	}
	m.res.Breakdown[cat] += k
}

// missCategory maps the level that satisfies an outstanding load to the
// paper's stall category: a load satisfied from memory is an L3 miss, from
// L3 an L2 miss, from L2 an L1 miss.
func missCategory(lvl mem.Level) Category {
	switch lvl {
	case mem.Mem:
		return CatL3
	case mem.L3:
		return CatL2
	default:
		return CatL1
	}
}

// issueInOrder tries to issue up to budget instructions from t. It reports
// how many issued (more than one only on the threaded pure-step fast lane),
// whether the thread may continue issuing this cycle, and — when blocked —
// whether the block is a scoreboard stall on an outstanding load and at
// which level.
func (m *Machine) issueInOrder(t *Thread, budget int, intU, memU, brU, fpU *int) (k int, cont bool, lvl mem.Level, onLoad bool) {
	if !t.active || t.frontStallUntil > m.now {
		return 0, false, 0, false
	}
	pc := t.pc
	d := &m.code[pc]
	// The caller (runInOrder) routes instructions with compiled pure steps
	// to issueStepsInOrder before getting here, so this path only sees
	// table-dispatch instructions.
	// Structural hazard: required unit busy.
	switch d.FU {
	case decode.FUInt:
		if *intU == 0 {
			return 0, false, 0, false
		}
	case decode.FUMem:
		if *memU == 0 {
			return 0, false, 0, false
		}
	case decode.FUBr:
		if *brU == 0 {
			return 0, false, 0, false
		}
	case decode.FUFP:
		if *fpU == 0 {
			return 0, false, 0, false
		}
	}
	// Scoreboard: all sources ready.
	for _, loc := range d.Uses {
		if e := &t.sb[loc]; e.ready > m.now {
			if e.loadLevel != 0 {
				return 0, false, mem.Level(e.loadLevel - 1), true
			}
			return 0, false, 0, false
		}
	}
	switch d.FU {
	case decode.FUInt:
		*intU--
	case decode.FUMem:
		*memU--
	case decode.FUBr:
		*brU--
	case decode.FUFP:
		*fpU--
	}

	ef := m.execArch(t, pc)
	t.instrs++
	if t.spec {
		m.res.SpecInstrs++
		// >= so an activation executes at most MaxSpecInstrs instructions:
		// the ceiling is exactly the budget the safety verifier certifies
		// against (ssp.AnalyzeSafety), never that plus one.
		if t.instrs >= m.Cfg.MaxSpecInstrs {
			ef.kill = true
		}
	} else {
		m.res.MainInstrs++
	}

	// Default completion time for defined locations.
	lat := m.lat[d.Lat]
	for _, loc := range d.Defs {
		t.sb[loc] = sbEntry{ready: m.now + lat}
	}
	if !ef.nullified {
		switch ef.memKind {
		case memLoad:
			acc := m.Hier.Access(ef.memID, ef.memAddr, m.now, true)
			t.sb[ef.loadDest].ready = m.now + acc.Latency
			if acc.Level != mem.L1 {
				t.sb[ef.loadDest].loadLevel = uint8(acc.Level) + 1
				if m.cycle != nil && !t.spec {
					// Only the cycle hook's accounting of the main
					// thread reads the fills.
					m.fills.add(m.now+acc.Latency, acc.Level, m.now)
				}
			}
		case memStore:
			m.Hier.Access(ef.memID, ef.memAddr, m.now, true)
		case memPrefetch:
			m.Hier.Prefetch(ef.memID, ef.memAddr, m.now)
		}
	}
	if ef.brCond {
		if m.Pred.PredictAndTrain(uint64(pc), ef.brTaken && !ef.nullified) {
			t.frontStallUntil = m.now + m.Cfg.MispredictPenalty
			m.res.Mispredicts++
		}
	}
	if d.Op == ir.OpChk && ef.nextPC != pc+1 {
		// The lightweight exception flushes the pipeline (§4.4.1).
		t.frontStallUntil = m.now + m.Cfg.SpawnFlushPenalty
	}
	if ef.kill {
		m.killThread(t)
		if !t.spec {
			// thread_kill_self on the non-speculative thread: without this
			// the loop would spin until the watchdog, since nothing else
			// sets mainDone. Flag it so RunProgram can surface the error.
			m.res.MainKilled = true
			m.mainDone = true
		}
		return 1, false, 0, false
	}
	if ef.halt {
		m.mainDone = true
		return 1, false, 0, false
	}
	t.pc = ef.nextPC
	return 1, ef.nextPC == pc+1, 0, false
}

// issueStepsInOrder is issueInOrder's fast lane for instructions the threaded
// core compiled to pure steps: no memory access, no control transfer, no
// halt/kill, next PC always pc+1. It batches: as long as the next instruction
// also has a pure step and the slot budget lasts, it keeps issuing without
// returning to the cycle loop, amortizing the per-call overhead the table
// path pays per instruction. Each constituent issue replicates the table path
// exactly — structural-hazard check, scoreboard, per-instruction accounting,
// speculative budget enforcement, scoreboard writeback — only the archEffect
// round-trip and its post-execution switches are gone.
// check.ThreadedEquivalence holds the two paths bit-identical.
func (m *Machine) issueStepsInOrder(t *Thread, budget int, intU, memU, brU, fpU *int) (k int, cont bool, lvl mem.Level, onLoad bool) {
	pc := t.pc
	steps := m.steps
	info := m.stepInfo
	now := m.now
	// Per-instruction bookkeeping — the exec hook and the speculative budget
	// check — is only needed for speculative threads or when an external
	// oracle is attached; on the plain main-thread path the counters are
	// settled once at loop exit instead (nothing observes them mid-batch:
	// pure steps reach no hook, no memory system, and no kill/halt).
	perInstr := t.spec || m.exec != nil
	s := steps[pc] // non-nil: the caller dispatched here on it
	for {
		// The compact StepInfo record carries everything the issue loop
		// needs — operand locations, FU, latency class — in one fixed-size
		// read, with no decode-table Uses/Defs slice chases.
		si := &info[pc]
		var u *int
		switch si.FU {
		case decode.FUInt:
			u = intU
		case decode.FUMem:
			u = memU // liw/lir occupy a memory port
		case decode.FUBr:
			u = brU
		case decode.FUFP:
			u = fpU
		}
		if u != nil && *u == 0 {
			break
		}
		// Scoreboard: all sources ready.
		for i := 0; i < int(si.NU); i++ {
			if e := &t.sb[si.Uses[i]]; e.ready > now {
				if e.loadLevel != 0 {
					lvl, onLoad = mem.Level(e.loadLevel-1), true
				}
				goto out
			}
		}
		if u != nil {
			*u--
		}
		if perInstr {
			if m.exec != nil {
				m.exec.Exec(m, t, pc)
			}
			s(&t.Ctx)
			k++
			t.instrs++
			if t.spec {
				m.res.SpecInstrs++
				// >= for the same reason as the table path: the activation
				// never exceeds the certified MaxSpecInstrs budget.
				if t.instrs >= m.Cfg.MaxSpecInstrs {
					pc++
					t.pc = pc
					m.killThread(t)
					return k, false, 0, false
				}
			} else {
				m.res.MainInstrs++
			}
		} else {
			s(&t.Ctx)
			k++
		}
		lat := m.lat[si.Lat]
		for i := 0; i < int(si.ND); i++ {
			t.sb[si.Defs[i]] = sbEntry{ready: now + lat}
		}
		pc++
		if k == budget {
			cont = true
			break
		}
		if s = steps[pc]; s == nil {
			cont = true
			break
		}
	}
out:
	t.pc = pc
	if !perInstr {
		t.instrs += int64(k)
		m.res.MainInstrs += int64(k)
	}
	return k, cont, lvl, onLoad
}
