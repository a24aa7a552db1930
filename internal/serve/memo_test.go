package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// builtinSpecs are the 48 golden cells: every benchmark × model × variant at
// test scale, keyed like internal/exp/testdata/golden_stats.json.
func builtinSpecs() map[string]JobSpec {
	out := make(map[string]JobSpec)
	for _, b := range exp.Benchmarks() {
		for _, m := range []sim.Model{sim.InOrder, sim.OOO} {
			for _, v := range []string{"base", "ssp"} {
				out[b+"/"+m.String()+"/"+v] = JobSpec{Bench: b, Model: m.String(), Variant: v}
			}
		}
	}
	return out
}

func loadGolden(t *testing.T) map[string]JobResult {
	t.Helper()
	data, err := os.ReadFile("../exp/testdata/golden_stats.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]JobResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		t.Fatal(err)
	}
	return g
}

// randomSource is a unique source job: a seeded random program rendered as
// assembly.
func randomSource(seed int64) JobSpec {
	return JobSpec{Source: ir.Format(workloads.RandomProgram(seed)), Model: "in-order"}
}

// TestEvictionGolden: with a one-byte budget every completed cell is dropped
// at once, so two passes over the 48 built-in cells are all misses, and both
// stay byte-identical to the golden stats — eviction never changes an answer.
func TestEvictionGolden(t *testing.T) {
	golden := loadGolden(t)
	s, ts := newTestServer(t, Config{CacheBytes: 1})
	specs := builtinSpecs()
	if len(specs) != 48 || len(golden) != 48 {
		t.Fatalf("%d built-in cells, %d golden cells, want 48", len(specs), len(golden))
	}
	for pass := 0; pass < 2; pass++ {
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, 4)
		for name, spec := range specs {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				code, jr, msg := post(t, ts, spec)
				mu.Lock()
				defer mu.Unlock()
				if code != http.StatusOK {
					t.Errorf("pass %d %s: HTTP %d: %s", pass, name, code, msg)
					return
				}
				if jr.Cached {
					t.Errorf("pass %d %s: cached under a one-byte budget", pass, name)
				}
				got := *jr.Result
				got.Slices = 0 // not a golden field
				if got != golden[name] {
					t.Errorf("pass %d %s: served %+v, golden %+v", pass, name, got, golden[name])
				}
			}()
		}
		wg.Wait()
		st := s.Snapshot()
		if want := int64(48 * (pass + 1)); st.Misses != want || st.Hits != 0 {
			t.Errorf("after pass %d: misses=%d hits=%d, want %d/0", pass, st.Misses, st.Hits, want)
		}
		if st.CacheBytes != 0 || st.Cells != 0 || st.Evictions == 0 {
			t.Errorf("after pass %d: cache_bytes=%d cells=%d evictions=%d, want 0/0/>0", pass, st.CacheBytes, st.Cells, st.Evictions)
		}
	}
}

// TestInFlightSurvivesEviction: a cell still computing is never on the LRU
// list, so eviction pressure while it runs cannot drop it: every coalesced
// waiter gets the one simulation's answer, and the cell counts one miss.
func TestInFlightSurvivesEviction(t *testing.T) {
	const budget = 4096
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 64, CacheBytes: budget})
	spec := JobSpec{Bench: "mst", Model: "in-order"}

	// Hold the only worker slot so the job stays in flight; release it on
	// every exit so a failing test does not strand the waiters.
	s.sem <- struct{}{}
	held := true
	release := func() {
		if held {
			held = false
			<-s.sem
		}
	}
	defer release()
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*JobResponse, waiters)
	codes := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], results[i], _ = post(t, ts, spec)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.inflight.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatal("coalesced requests never showed up in the inflight count")
		}
		time.Sleep(time.Millisecond)
	}
	j, err := spec.normalize(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Eviction pressure: completed cells that overflow the budget, and one
	// larger than the whole budget.
	for i := 0; i < 16; i++ {
		e := s.memo.lookup(runKey(fmt.Sprint("pressure-", i)), func() any { return new(runCell) })
		s.memo.settle(e, true, budget/3)
	}
	e := s.memo.lookup(runKey("pressure-huge"), func() any { return new(runCell) })
	s.memo.settle(e, true, 2*budget)
	st := s.Snapshot()
	if st.Evictions < 14 || st.CacheBytes > budget {
		t.Errorf("pressure did not evict: %+v", st)
	}
	s.memo.mu.Lock()
	_, alive := s.memo.entries[runKey(j.key)]
	s.memo.mu.Unlock()
	if !alive {
		t.Error("in-flight cell evicted under pressure")
	}

	release()
	wg.Wait()
	misses := 0
	for i := 0; i < waiters; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("waiter %d: HTTP %d", i, codes[i])
		}
		if *results[i].Result != *results[0].Result {
			t.Errorf("waiter %d got a different answer", i)
		}
		if !results[i].Cached {
			misses++
		}
	}
	if st := s.Snapshot(); misses != 1 || st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("%d uncached answers, statz misses=%d hits=%d; want 1, 1, %d", misses, st.Misses, st.Hits, waiters-1)
	}
}

// TestHotBuiltinSurvives: eviction is least-recently-used, not first-in
// first-out. A built-in hit after every unique source stays cached while the
// sources turn the cache over — its program and build, never hit, are
// evicted first — and it is still a hit after a final burst.
func TestHotBuiltinSurvives(t *testing.T) {
	const budget = 1 << 20
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: budget})
	hot := JobSpec{Bench: "health", Model: "in-order"}
	if code, jr, msg := post(t, ts, hot); code != http.StatusOK || jr.Cached {
		t.Fatalf("first hot job: HTTP %d cached=%v %s", code, jr != nil && jr.Cached, msg)
	}
	seed := int64(1000)
	source := func() {
		t.Helper()
		seed++
		if code, _, msg := post(t, ts, randomSource(seed)); code != http.StatusOK {
			t.Fatalf("source %d: HTTP %d: %s", seed, code, msg)
		}
	}
	for i := 0; i < 24; i++ {
		source()
		if code, jr, _ := post(t, ts, hot); code != http.StatusOK || !jr.Cached {
			t.Fatalf("hot built-in missed after %d sources", i+1)
		}
	}
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("sources never filled the %d-byte budget: %+v", budget, st)
	}
	s.memo.mu.Lock()
	_, progKept := s.memo.entries[progKey{Bench: "health", Test: true}]
	s.memo.mu.Unlock()
	if progKept {
		t.Errorf("the hot job's program (inserted first, never hit) outlived %d evictions", st.Evictions)
	}
	for i := 0; i < 4; i++ {
		source()
	}
	if code, jr, _ := post(t, ts, hot); code != http.StatusOK || !jr.Cached {
		t.Errorf("recently hit built-in missed after a burst of 4 sources")
	}
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBoundedMemory: under a stream of unique sources the resident bytes
// never exceed the budget, and the live heap stops growing once the cache is
// full.
func TestBoundedMemory(t *testing.T) {
	const budget = 512 << 10
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: budget})
	const n = 60
	var mid int64
	for i := 0; i < n; i++ {
		spec := randomSource(int64(2000 + i))
		if i%2 == 1 {
			spec.Variant = "ssp"
		}
		if code, _, msg := post(t, ts, spec); code != http.StatusOK {
			t.Fatalf("source %d: HTTP %d: %s", i, code, msg)
		}
		if st := s.Snapshot(); st.CacheBytes > budget {
			t.Fatalf("after source %d: cache_bytes %d over the %d budget", i, st.CacheBytes, budget)
		}
		if i == n/3 {
			mid = liveHeap()
		}
	}
	end := liveHeap()
	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("%d sources never filled the budget: %+v", n, st)
	}
	t.Logf("live heap %d KiB after %d sources, %d KiB after %d; %d evictions", mid>>10, n/3+1, end>>10, n, st.Evictions)
	// Unbounded, the last two thirds of the sources would add ~4 MiB.
	if grow := end - mid; grow > 1<<20 {
		t.Errorf("live heap grew %d KiB over %d unique sources under a %d KiB budget", grow>>10, n-n/3, budget>>10)
	}
}

// TestSizeEstimate: a job's estimated cell sizes are within a factor of two
// of the live heap they actually hold, for a test-scale built-in, a
// paper-scale built-in and a source job.
func TestSizeEstimate(t *testing.T) {
	for _, spec := range []JobSpec{
		{Bench: "mcf", Model: "in-order", Variant: "ssp"},
		{Bench: "health", Model: "in-order", Scale: "paper"},
		func() JobSpec { s := randomSource(7); s.Variant = "ssp"; return s }(),
	} {
		s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 40})
		if code, _, msg := post(t, ts, spec); code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, msg)
		}
		s.pool = sim.Pool{} // the pooled machine is not memo memory
		est := s.Snapshot().CacheBytes
		held := liveHeap()
		s.memo = newMemo(1)
		delta := held - liveHeap()
		name := spec.Bench + "/" + spec.Scale
		if spec.Source != "" {
			name = "source"
		}
		r := float64(est) / float64(delta)
		t.Logf("%s: estimated %d KiB, heap delta %d KiB (ratio %.2f)", name, est>>10, delta>>10, r)
		if r < 0.5 || r > 2 {
			t.Errorf("%s: estimated %d KiB, heap delta %d KiB (ratio %.2f)", name, est>>10, delta>>10, r)
		}
	}
}

// TestCanonicalSourceKey: sources that differ only in comments and
// whitespace are one job — the variant is a cache hit with the same key.
func TestCanonicalSourceKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := randomSource(11)
	code, first, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, msg)
	}
	variant := spec
	variant.Source = "# the same program, annotated\n" +
		strings.ReplaceAll(spec.Source, "\n\t", "  # step\n    ")
	code, second, msg := post(t, ts, variant)
	if code != http.StatusOK {
		t.Fatalf("variant: HTTP %d: %s", code, msg)
	}
	if !second.Cached || second.Key != first.Key {
		t.Errorf("comment-only variant: cached=%v key %s, want cached with key %s", second.Cached, second.Key, first.Key)
	}
}

// TestUnsafeRenamedSliceRejected: the 422 gate finds slices by spawn edges.
// Renaming an unsafe adapted program's ssp_slice_ labels does not get it
// past the verifier.
func TestUnsafeRenamedSliceRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := workloads.Mcf()
	orig, _ := spec.Build(spec.TestScale)
	prof, err := profile.Collect(orig, machineConfig(sim.InOrder, true))
	if err != nil {
		t.Fatal(err)
	}
	adapted, _, err := ssp.Adapt(orig, prof, ssp.DefaultOptions(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := ssp.InjectUnsafe(adapted, ssp.SafetyStore)
	if !ok {
		t.Fatal("adapted mcf has no slice to corrupt")
	}
	src := strings.ReplaceAll(ir.Format(bad), "ssp_slice_", "zz_")
	code, _, msg := post(t, ts, JobSpec{Source: src, Model: "in-order"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("renamed unsafe slice: HTTP %d (%s), want 422", code, msg)
	}
	var ur UnsafeResponse
	if err := json.Unmarshal([]byte(msg), &ur); err != nil || ur.Safety == nil || len(ur.Safety.Violations) == 0 {
		t.Fatalf("422 body carries no safety report: %v %s", err, msg)
	}
	if got := ur.Safety.Violations[0].Class; got != ssp.SafetyStore {
		t.Errorf("violation class %q, want %q", got, ssp.SafetyStore)
	}
}
