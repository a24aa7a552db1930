package sim

import (
	"fmt"

	"ssp/internal/sim/decode"
)

// AttachSchedulerCheck installs the OOO scheduler invariant checker on m and
// returns a function reporting the first violation it found. The checker is
// a per-cycle hook without bulk Skip support, so it also turns fast-forward
// off: every cycle is simulated and checked. It keeps the default stats
// accounting, so the run's Result is unchanged. On a violation it
// interrupts the run.
func AttachSchedulerCheck(m *Machine) func() error {
	c := &schedCheck{}
	m.AttachExec(c)
	m.SetCycleHooks(c)
	return func() error { return c.err }
}

// schedCheck recomputes the event-driven scheduler state of every active
// window from first principles after every cycle. It records each record's
// producers itself, from the rename table as it stands when the record is
// executed at dispatch, so the recomputation does not trust the consumer
// edges it is checking.
type schedCheck struct {
	statsHooks
	// srcs[context][slot] is the producer position of each source operand
	// of the record in that ring slot (-1: none).
	srcs [][][decode.MaxUses]int64
	err  error
}

// slots returns t's producer table, sized to its window's ring.
func (c *schedCheck) slots(t *Thread) [][decode.MaxUses]int64 {
	for len(c.srcs) <= t.idx {
		c.srcs = append(c.srcs, nil)
	}
	if len(c.srcs[t.idx]) != len(t.win.recs) {
		c.srcs[t.idx] = make([][decode.MaxUses]int64, len(t.win.recs))
	}
	return c.srcs[t.idx]
}

func (c *schedCheck) Exec(m *Machine, t *Thread, pc int) {
	w := t.win
	if w == nil {
		return
	}
	var p [decode.MaxUses]int64
	for i := range p {
		p[i] = -1
	}
	for i, loc := range m.code[pc].Uses {
		p[i] = w.rename[loc]
	}
	c.slots(t)[w.tailAbs&w.mask] = p
}

func (c *schedCheck) Cycle(m *Machine, main *Thread, s CycleStats) {
	c.statsHooks.Cycle(m, main, s)
	if c.err != nil {
		return
	}
	for _, t := range m.threads {
		if !t.active || t.win == nil {
			continue
		}
		if err := c.checkWindow(m, t); err != nil {
			c.err = fmt.Errorf("cycle %d, context %d: %w", m.now, t.idx, err)
			m.Interrupt()
			return
		}
	}
}

// checkWindow verifies one window:
//
//   - the unissued list holds exactly the unissued records, oldest first;
//   - each reservation-station view record's ready cycle equals the one
//     recomputed by walking its producers with the per-source readiness
//     definition (a producer below headAbs has retired and is satisfied; a
//     live one is satisfied from its doneAt once it has issued) — equal as
//     cycles once clamped to now, because a completed producer's exact
//     doneAt is gone once it retires;
//   - the wake cycle is the minimum ready cycle over the view;
//   - the completion heap's top is the minimum doneAt over issued,
//     incomplete records.
func (c *schedCheck) checkWindow(m *Machine, t *Thread) error {
	w := t.win
	now := m.now
	srcs := c.slots(t)
	n := 0
	last := w.headAbs - 1
	viewMin := notReady
	for s := w.uhead; s >= 0; s = w.next[s] {
		a := w.headAbs + (int64(s)-w.headAbs)&w.mask
		if a <= last || a >= w.tailAbs {
			return fmt.Errorf("unissued list: position %d after %d, window [%d,%d)", a, last, w.headAbs, w.tailAbs)
		}
		last = a
		if w.recs[s].issued {
			return fmt.Errorf("unissued list holds issued record %d", a)
		}
		if n < m.Cfg.RSSize {
			want := int64(0)
			for _, pa := range srcs[s] {
				if pa < w.headAbs {
					continue
				}
				p := w.at(pa)
				if !p.issued {
					want = notReady
					break
				}
				want = max(want, p.doneAt)
			}
			got := w.ready[s]
			if max(got, now) != max(want, now) {
				return fmt.Errorf("record %d: ready cycle %d, producers say %d", a, got, want)
			}
			viewMin = min(viewMin, got)
		}
		n++
	}
	unissued := 0
	wantDone := notReady
	for a := w.headAbs; a < w.tailAbs; a++ {
		r := w.at(a)
		if !r.issued {
			unissued++
		} else if r.doneAt > now {
			wantDone = min(wantDone, r.doneAt)
		}
	}
	if n != unissued || n != w.nUnissued {
		return fmt.Errorf("unissued list has %d records, window %d, count %d", n, unissued, w.nUnissued)
	}
	if w.wake != viewMin {
		return fmt.Errorf("wake %d, view minimum %d", w.wake, viewMin)
	}
	if got := w.done.next(now); got != wantDone {
		return fmt.Errorf("completion heap top %d, want %d", got, wantDone)
	}
	if len(w.done) > w.cap {
		return fmt.Errorf("completion heap holds %d entries, window capacity %d", len(w.done), w.cap)
	}
	return nil
}
