package sim

// The stall-aware fast-forward timing core. The paper's machines spend
// 80-90% of their cycles stalled on memory (Figure 10); simulating each of
// those cycles individually is wasted work, because a fully stalled machine
// changes no state at all — the only thing that moves is the cycle counter.
// When an engine finishes a cycle in which nothing issued, dispatched, or
// retired anywhere, it proves the machine is fully stalled (every active
// thread is blocked on a known future cycle, not on a structural or
// selection artifact that the next cycle could resolve), computes the
// earliest cycle at which anything can change, and jumps the clock there in
// one step. The skipped cycles are credited to the breakdown and
// utilization accounting in bulk through the CycleSkipper hook, and the
// round-robin selection cursor is advanced exactly as the skipped selection
// passes would have advanced it, so a fast-forwarded run is bit-for-bit
// identical to a per-cycle run (check.FastForwardEquivalence).
//
// The event set a jump respects:
//
//   - every active thread's front-end stall expiry (frontStallUntil);
//   - in-order: the ready cycle of the first unready source of the
//     instruction each thread is blocked on (the scoreboard stall);
//   - OOO: the earliest completion (doneAt) among each window's
//     issued-but-incomplete records, the top of its completion heap —
//     completions drive retirement, wakeup, full-window drain, waitDrain
//     drain, and blocked-branch resolution;
//   - the completion of any of the main thread's outstanding cache fills,
//     because the Figure 10 category of a stalled cycle depends on the
//     deepest *outstanding* fill (a jump across a fill completion could
//     credit cycles to the wrong miss level);
//   - the memory system's earliest in-flight fill-buffer completion
//     (mem.Hierarchy.EarliestPending) — currently redundant with the
//     per-thread events because the hierarchy drains lazily, but it keeps
//     the core correct if the memory system ever grows eager behavior.

const ffNoEvent = int64(1) << 62

// eventHeap is a min-heap of future event cycles: an OOO window's record
// completions and the main thread's cache-fill completions. Entries at or
// before now are popped on every push and read, so it holds only events
// still ahead and its top is the next one.
type eventHeap []int64

// push adds an event at cycle at, first popping the events at or before now.
func (h *eventHeap) push(at, now int64) {
	if len(*h) > 0 && (*h)[0] <= now {
		h.prune(now)
	}
	s := append(*h, at)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// next returns the earliest event after now, or ffNoEvent when none is left.
func (h *eventHeap) next(now int64) int64 {
	if len(*h) > 0 && (*h)[0] <= now {
		h.prune(now)
	}
	if len(*h) == 0 {
		return ffNoEvent
	}
	return (*h)[0]
}

// prune pops the events at or before now.
func (h *eventHeap) prune(now int64) {
	s := *h
	for len(s) > 0 && s[0] <= now {
		n := len(s) - 1
		s[0] = s[n]
		s = s[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1] < s[c] {
				c++
			}
			if s[i] <= s[c] {
				break
			}
			s[i], s[c] = s[c], s[i]
			i = c
		}
	}
	*h = s
}

// maxSelect is the engines' per-cycle thread-selection capacity (the size of
// their sel arrays); stepRR mirrors the same bound.
const maxSelect = 8

// ffEligible reports whether the machine may fast-forward at all: the
// feature must be on, the installed cycle hook (if any) must understand bulk
// crediting, and the context count must fit the selection-cursor bitmask.
func (m *Machine) ffEligible() bool {
	return m.Cfg.FastForward && (m.cycle == nil || m.skip != nil) && len(m.threads) <= 64
}

// fastForwardInOrder attempts a stall jump on the in-order model after a
// cycle in which no thread issued. It verifies every active thread is
// time-blocked — front-end stalled, or scoreboard-stalled on an outstanding
// completion — and jumps to just before the earliest unblocking event. A
// thread that could issue (it lost the per-cycle thread-selection lottery,
// nothing more) vetoes the jump, since the very next cycle would pick it.
func (m *Machine) fastForwardInOrder(main *Thread, s CycleStats) {
	if !m.ffEligible() {
		return
	}
	next := ffNoEvent
	var eligible uint64
	for _, t := range m.threads {
		if !t.active {
			continue
		}
		if t.frontStallUntil > m.now {
			if t.frontStallUntil < next {
				next = t.frontStallUntil
			}
			continue
		}
		if t != main {
			// Selectable speculative thread: the round-robin cursor keeps
			// rotating over these during the stall.
			eligible |= 1 << uint(t.idx)
		}
		// Scoreboard probe, mirroring issueInOrder: the thread is blocked
		// iff a source of the instruction at its pc is not ready. (All
		// function units are free — nothing issued this cycle — so a
		// structural stall is impossible.)
		blocked := false
		for _, loc := range m.code[t.pc].Uses {
			if r := t.sb[loc].ready; r > m.now {
				blocked = true
				if r < next {
					next = r
				}
				break
			}
		}
		if !blocked {
			return
		}
	}
	m.ffJump(main, s, next, eligible)
}

// fastForwardOOO attempts a stall jump on the out-of-order model after a
// cycle in which nothing retired, issued, or dispatched. Every active thread
// must have dispatch blocked and no issuable window record; the events are
// the completions of issued-but-unfinished records plus front-stall
// expiries. A thread with a data-ready unissued record vetoes the jump (it
// only failed to issue because selection passed it over this cycle). Both
// facts are read from the window's event-driven state, not by walking it:
// the wake cycle says whether anything in the reservation-station view is
// ready, and the completion heap gives the next doneAt.
func (m *Machine) fastForwardOOO(main *Thread, s CycleStats) {
	if !m.ffEligible() {
		return
	}
	next := ffNoEvent
	var eligible uint64
	for _, t := range m.threads {
		if !t.active || t.win == nil {
			continue
		}
		if t != main {
			eligible |= 1 << uint(t.idx)
		}
		w := t.win
		// Dispatch must be unable to proceed for a timed reason; otherwise
		// the thread would dispatch the cycle selection next picks it.
		if !(t.frontStallUntil > m.now || w.blocked >= 0 || w.haltAfterDrain ||
			w.full() || (w.waitDrain && w.size() > 0)) {
			return
		}
		if w.wake <= m.now {
			return
		}
		if t.frontStallUntil > m.now && t.frontStallUntil < next {
			next = t.frontStallUntil
		}
		next = min(next, w.done.next(m.now))
	}
	m.ffJump(main, s, next, eligible)
}

// ffJump performs the jump: clamp the next-event cycle against the
// classification events and the watchdog, bulk-credit the skipped cycles,
// advance the selection cursor, and move the clock. s is the CycleStats of
// the cycle just simulated; since nothing can issue before the jump target,
// every skipped cycle would have produced the same stats.
func (m *Machine) ffJump(main *Thread, s CycleStats, next int64, eligible uint64) {
	if m.cycle != nil {
		// Never jump across a completion of one of main's outstanding
		// fills: the breakdown category of a stalled cycle is the deepest
		// outstanding fill's level, which changes at each completion.
		next = min(next, m.fills.done.next(m.now))
	}
	if e, ok := m.Hier.EarliestPending(m.now); ok && e < next {
		next = e
	}
	if next == ffNoEvent {
		return
	}
	// Resume one cycle before the event so the event cycle itself is
	// simulated normally; never move past the watchdog boundary (the slow
	// path credits stall cycles up to exactly MaxCycles before timing out).
	target := next - 1
	if target > m.Cfg.MaxCycles {
		target = m.Cfg.MaxCycles
	}
	k := target - m.now
	if k <= 0 {
		return
	}
	if m.skip != nil {
		m.skip.Skip(m, main, s, k)
	}
	if eligible != 0 {
		m.advanceRR(k, eligible)
	}
	m.res.FastForwards++
	m.res.FastForwardedCycles += k
	m.now = target
}

// advanceRR advances the round-robin selection cursor exactly as k
// consecutive fully-stalled selection passes would, without iterating k
// times. With a static eligible set the cursor's next value is a pure
// function of its current value, so its orbit enters a cycle within
// len(threads)+1 steps; the final position follows by modular arithmetic.
func (m *Machine) advanceRR(k int64, eligible uint64) {
	var firstAt [64]int64
	var orbit [65]int
	for i := range m.threads {
		firstAt[i] = -1
	}
	rr := m.rr
	for i := int64(0); ; i++ {
		if i == k {
			m.rr = rr
			return
		}
		if f := firstAt[rr]; f >= 0 {
			period := i - f
			m.rr = orbit[f+(k-f)%period]
			return
		}
		firstAt[rr] = i
		orbit[i] = rr
		rr = m.stepRR(rr, eligible)
	}
}

// stepRR runs one thread-selection pass over a static eligible set (bit i
// set = threads[i] is active and selectable this cycle), mirroring the
// engines' selection loops: scan from the cursor, take up to
// ThreadsPerCycle-1 speculative threads, move the cursor past each pick.
func (m *Machine) stepRR(rr int, eligible uint64) int {
	picked, n := 0, 1
	for scan := 0; scan < len(m.threads) && picked < m.Cfg.ThreadsPerCycle-1 && n < maxSelect; scan++ {
		idx := (rr + scan) % len(m.threads)
		if eligible&(1<<uint(idx)) == 0 {
			continue
		}
		n++
		picked++
		rr = (idx + 1) % len(m.threads)
	}
	return rr
}
