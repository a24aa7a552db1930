package sim

import (
	"sync"
	"sync/atomic"

	"ssp/internal/sim/decode"
)

// Pool recycles machines across runs: Get rebinds a pooled machine to a new
// (config, program) via Machine.Reset — reusing its memory page frames,
// hierarchy, predictor tables, and per-thread buffers — or builds a fresh one
// when the pool is empty. A Reset machine runs bit-for-bit identically to a
// freshly constructed one (the check.HotPathEquivalence gate enforces this),
// which is what makes pooling safe at all.
//
// Discipline: Put only machines whose run completed cleanly — the Result
// extracted, no error, no panic. A machine abandoned mid-run (cancellation,
// a panicking instrumentation hook, a failed checksum) must be dropped on
// the floor instead; Reset would scrub it, but never pooling dirty machines
// means a bug in Reset can only ever cost performance, not correctness.
// exp.Suite and serve.Server both follow this rule, and the pool's counters
// make violations visible: Puts only moves on clean completions.
//
// The pool is a plain free list owned by its user, not a sync.Pool. It
// never holds more machines than were in use at once, and they die with
// it: a sync.Pool stays registered with the runtime for two more GC cycles
// after its owner is gone, keeping every idle paper-scale machine of a
// finished exp.Suite alive into the next one, and its per-P private slots
// make a Get on another P build a new machine while an idle one sits in
// the pool. Both raised the peak heap of back-to-back cold suites.
//
// The zero Pool is ready to use. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*Machine

	gets atomic.Int64 // machines handed out
	hits atomic.Int64 // ... of which were recycled rather than built
	puts atomic.Int64 // machines returned after clean completions
}

// Get returns a machine bound to (cfg, dp): a recycled one when available,
// a newly built one otherwise.
func (p *Pool) Get(cfg Config, dp *decode.Program) *Machine {
	p.gets.Add(1)
	p.mu.Lock()
	var m *Machine
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if m == nil {
		return NewPredecoded(cfg, dp)
	}
	p.hits.Add(1)
	m.Reset(cfg, dp)
	return m
}

// Put returns a machine to the pool. Call it only after a clean completion:
// Run/RunContext returned a verified Result. Machines from failed, cancelled,
// or panicked runs must simply be dropped.
func (p *Pool) Put(m *Machine) {
	p.puts.Add(1)
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// PoolStats is a snapshot of a Pool's reuse counters.
type PoolStats struct {
	// Gets counts machines handed out, Hits how many of those were
	// recycled (Gets-Hits were fresh builds), and Puts how many machines
	// came back after clean completions (Gets-Puts were discarded or are
	// still in use).
	Gets, Hits, Puts int64
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Gets: p.gets.Load(), Hits: p.hits.Load(), Puts: p.puts.Load()}
}
