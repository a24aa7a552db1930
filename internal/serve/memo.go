package serve

import (
	"context"
	"sync"
	"unsafe"

	"ssp/internal/flight"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
	"ssp/internal/ssp"
	"ssp/internal/tune"
)

// runKey and tuneKey are the memo keys of job results and tune searches
// (the hex content key of the job); progKey and buildKey (job.go) key the
// programs and builds they are computed from.
type (
	runKey  string
	tuneKey string
)

// memo is the server's one memoization table. Every flight cell the server
// computes — a built and profiled program, an adapted build, a job result, a
// tune search — is found through one map by its content key. Completed cells
// (values and cached deterministic errors) also sit on one LRU list with the
// size estimated when they completed; after each completion the least
// recently used cells are evicted until the resident bytes fit the budget.
// A lookup that finds a completed cell moves it to the front.
//
// Cells still computing are never on the list, so they cannot be evicted:
// their coalesced waiters always get the answer. A cell larger than the
// whole budget answers its waiters and is then dropped. An evicted cell
// stays valid for whoever already holds it; the next lookup of its key
// starts a fresh cell and recomputes.
type memo struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64 // estimated bytes of the resident cells
	evictions int64
	entries   map[any]*entry
	results   int   // run and tune entries: the /statz cells count
	lru       entry // list sentinel: lru.next is the most recently used
}

// entry is one memo slot: the cell and, once it completed, its place on the
// LRU list (prev and next are nil while the cell is in flight).
type entry struct {
	key        any
	cell       any // *flight.Cell[*progSet], *flight.Cell[*build], *runCell, *flight.Cell[*tune.Result]
	size       int64
	prev, next *entry
}

func newMemo(budget int64) *memo {
	m := &memo{budget: budget, entries: make(map[any]*entry)}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

func isResult(key any) bool {
	switch key.(type) {
	case runKey, tuneKey:
		return true
	}
	return false
}

// lookup returns key's entry, making its cell with mk on a miss. A resident
// entry moves to the front of the list.
func (m *memo) lookup(key any, mk func() any) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		e = &entry{key: key, cell: mk()}
		m.entries[key] = e
		if isResult(key) {
			m.results++
		}
		return e
	}
	if e.next != nil {
		m.unlink(e)
		m.pushFront(e)
	}
	return e
}

// settle files the outcome of e's computation. A cached outcome makes e
// resident at the front with the given size, then evicts from the tail until
// the resident bytes fit the budget; an uncached one (a cancelled or
// transient run reset the cell) unmaps e, so a later lookup starts afresh
// instead of keeping an empty slot forever. An entry already unmapped — by
// an uncached earlier run on the same cell — is left unmapped.
func (m *memo) settle(e *entry, cached bool, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.key] != e || e.next != nil {
		return
	}
	if !cached {
		m.unmap(e)
		return
	}
	if size > m.budget {
		m.unmap(e)
		m.evictions++
		return
	}
	e.size = size
	m.bytes += size
	m.pushFront(e)
	for m.bytes > m.budget {
		victim := m.lru.prev
		m.unlink(victim)
		m.bytes -= victim.size
		m.unmap(victim)
		m.evictions++
	}
}

func (m *memo) unmap(e *entry) {
	delete(m.entries, e.key)
	if isResult(e.key) {
		m.results--
	}
}

func (m *memo) pushFront(e *entry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

func (m *memo) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// stats returns the memo's part of the /statz payload.
func (m *memo) stats() (results int, bytes, evictions int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.results, m.bytes, m.evictions
}

// memoDo resolves key through its cell: the cached outcome, a ride on the
// computation in flight, or — for the caller that ends up running fn — a
// fresh computation, filed with size(v) when it completes. ran reports
// whether this caller ran fn.
func memoDo[T any](ctx context.Context, m *memo, key any, fn func(context.Context) (T, error), size func(T) int64) (v T, ran bool, err error) {
	e := m.lookup(key, func() any { return new(flight.Cell[T]) })
	return doCell(ctx, m, e, e.cell.(*flight.Cell[T]), fn, size)
}

// doCell is memoDo over an entry already looked up, for callers that need
// the cell before running it (a streamed job watches its runCell's counter).
func doCell[T any](ctx context.Context, m *memo, e *entry, c *flight.Cell[T], fn func(context.Context) (T, error), size func(T) int64) (v T, ran bool, err error) {
	v, err = c.Do(ctx, func(ctx context.Context) (T, error) {
		ran = true
		return fn(ctx)
	})
	if ran {
		n := int64(entryBytes)
		if err != nil {
			n += int64(len(err.Error()))
		} else {
			n += size(v)
		}
		m.settle(e, flight.Cacheable(err), n)
	}
	return v, ran, err
}

// Size estimates. Each is computed once, when the cell completes, from slice
// and map lengths times the element sizes: no reflection walk. Maps are
// charged mapSlot bytes per entry beyond their keys and values (Go's map
// tables run between 7/8 and 7/16 full).
const (
	// entryBytes covers one entry's fixed cost: map slot, entry, cell,
	// flight run record, key.
	entryBytes = 256
	mapSlot    = 24
	// stepClosure is the average heap cost of one compiled threaded step
	// or superinstruction closure.
	stepClosure = 32
)

func progSetBytes(ps *progSet) int64 {
	return int64(unsafe.Sizeof(*ps)) + programBytes(ps.orig) + profileBytes(ps.prof)
}

// programBytes charges the instruction tree and the static data image.
func programBytes(p *ir.Program) int64 {
	n := int64(unsafe.Sizeof(*p))
	for _, f := range p.Funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name)) + 8
		for _, b := range f.Blocks {
			n += int64(unsafe.Sizeof(*b)) + int64(len(b.Label)) + 8
			n += int64(len(b.Instrs)) * int64(unsafe.Sizeof(ir.Instr{})+8)
		}
	}
	return n + dataBytes(p.Data)
}

func dataBytes(d map[uint64]uint64) int64 { return int64(len(d)) * (16 + mapSlot) }

func profileBytes(pr *profile.Profile) int64 {
	n := int64(unsafe.Sizeof(*pr))
	n += int64(len(pr.InstrFreq)) * (16 + mapSlot)
	n += int64(len(pr.BlockFreq)) * (24 + 24 + mapSlot) // key header, value, label text
	n += int64(len(pr.Loads)) * (16 + mapSlot + int64(unsafe.Sizeof(mem.LoadStat{})))
	for _, callees := range pr.CallEdges {
		n += 16 + mapSlot + int64(len(callees))*(24+16+mapSlot)
	}
	return n
}

// buildBytes charges the predecoded sidecar, the linked image it was built
// from, the pre-paged data snapshot, and the threaded compile. The image's
// data map is charged only when the build owns it: a base build links the
// program as-is and shares the progSet's map, an adapted one links a copy.
func buildBytes(b *build, ownData bool) int64 {
	dp := b.dp
	code := int64(len(dp.Code))
	n := int64(unsafe.Sizeof(*b)) + int64(unsafe.Sizeof(*dp))
	// Decoded records plus their share of the Uses/Defs backing arrays.
	n += code * (int64(unsafe.Sizeof(decode.Decoded{})) + 3*int64(unsafe.Sizeof(ir.Loc(0))) + 32)
	img := dp.Img
	n += code * (int64(unsafe.Sizeof(ir.Linked{})) + 16) // Code, FuncOf, BlockOf
	n += int64(img.NumBlocks()) * (16 + 8 + 24 + mapSlot + 8)
	if ownData {
		n += dataBytes(img.Data)
	}
	n += int64(dp.Mem.Pages()) * (mem.PageBytes + 16)
	n += threadedBytes(sim.ThreadedProgram(dp))
	return n
}

func threadedBytes(tp *threaded.Program) int64 {
	pcs := int64(len(tp.Steps))
	n := int64(unsafe.Sizeof(*tp))
	n += pcs * (8 + int64(unsafe.Sizeof(threaded.StepInfo{})) + 4 + 1)
	n += int64(tp.NSteps) * stepClosure
	for i := range tp.Blocks {
		blk := &tp.Blocks[i]
		n += int64(unsafe.Sizeof(*blk)) + 2*stepClosure
		n += int64(len(blk.LoadPCs)+len(blk.LoadIDs)) * 4
		n += int64(blk.NBody) * stepClosure / 2 // body nodes and fused closures
	}
	return n
}

func runBytes(*JobResult) int64 {
	return int64(unsafe.Sizeof(runCell{}) + unsafe.Sizeof(JobResult{}))
}

func tuneBytes(r *tune.Result) int64 {
	n := int64(unsafe.Sizeof(*r)) + int64(len(r.Candidates))*8
	for _, c := range r.Candidates {
		n += int64(unsafe.Sizeof(*c)) + int64(len(c.Label)+len(c.Err))
		for _, rd := range c.Rounds {
			n += int64(unsafe.Sizeof(rd))
			n += int64(len(rd.Targets)+len(rd.NewTargets)) * 8
			n += int64(len(rd.Skipped)) * int64(unsafe.Sizeof(ssp.SkippedLoad{}))
			n += int64(len(rd.Regions)+len(rd.NewRegions)) * 32
		}
	}
	return n
}
