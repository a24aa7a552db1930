// Package serve is the serving layer over the adapt+simulate pipeline: a
// long-running HTTP service that accepts jobs (a built-in benchmark or a
// source program, a machine model, a treatment, tool options), runs the same
// profile → adapt → simulate pipeline the experiment suite runs, and
// memoizes results behind content-addressed singleflight cells so identical
// jobs — concurrent or repeated — cost one simulation. The memo is bounded:
// completed cells sit on one LRU list under a byte budget (Config.CacheBytes).
//
// The server shares its building blocks with internal/exp rather than
// wrapping it: flight.Cell for coalescing and memoization, sim.Pool for
// machine reuse (clean completions only), and the exact machine
// configuration the suite uses, so a served result is byte-identical to the
// corresponding matrix cell in the golden-stats baseline.
//
// Capacity is explicit: Workers simulations run at once, Queue more may wait
// admitted, and everything beyond that is rejected immediately with HTTP 429
// rather than queued without bound. Cache hits bypass the worker pool
// entirely. Drain (SIGTERM in cmd/sspserved) stops admission and waits for
// the in-flight tail.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/check"
	"ssp/internal/exp"
	"ssp/internal/flight"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/tune"
	"ssp/internal/workloads"
)

// ErrBusy is returned (as HTTP 429) when the server is at capacity: every
// worker busy and the admission queue full.
var ErrBusy = errors.New("serve: at capacity")

// errDraining is returned (as HTTP 503) once Drain has begun.
var errDraining = errors.New("serve: draining")

// Config sizes a Server.
type Config struct {
	// Workers is the number of simulations allowed to run concurrently.
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Queue is how many admitted jobs may wait for a worker beyond the
	// ones running; past Workers+Queue in flight, requests are rejected
	// with 429. 0 means 4×Workers.
	Queue int
	// DefaultTimeout bounds jobs that do not set timeout_ms. 0 means 120s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the request body (source programs can be large
	// but not unbounded). 0 means 4 MiB.
	MaxBodyBytes int64
	// EnableTune admits tune-mode jobs (JobSpec.Tune): closed-loop
	// searches that cost many simulations each. Off by default; without
	// it tune jobs are rejected with 403.
	EnableTune bool
	// CacheBytes is the memo's budget: the estimated bytes of completed
	// cells (programs, builds, results, tune results) kept for reuse,
	// least recently used evicted first. 0 means 128 MiB.
	CacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 128 << 20
	}
	return c
}

// progSet is one program built and profiled at one scale, shared by every
// variant, option set, and model over it.
type progSet struct {
	orig *ir.Program
	// want is the expected final checksum; check is false for source
	// programs, which carry no expected value.
	want  uint64
	check bool
	prof  *profile.Profile
}

// build is one adapted, linked, predecoded binary.
type build struct {
	dp     *decode.Program
	slices int
}

// runCell is one job key's memoization slot plus the live cycle counter its
// SSE streams read. The counter is shared: coalesced requests all watch the
// one simulation that is actually running.
type runCell struct {
	cell   flight.Cell[*JobResult]
	cycles atomic.Int64
}

// Server is the HTTP handler. Construct with New; the zero value is not
// usable.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// sem is the worker pool: one token per concurrently running
	// simulation. Only cache misses acquire it; hits and coalesced
	// waiters never occupy a slot.
	sem chan struct{}

	inflight atomic.Int64
	draining atomic.Bool
	// admitMu serializes request admission (wg.Add) against Drain
	// (draining=true then wg.Wait), closing the window where a request
	// has passed the draining check but not yet registered itself.
	admitMu sync.Mutex
	wg      sync.WaitGroup

	// memo holds every cell: programs (progKey), builds (buildKey), job
	// results (runKey) and tune searches (tuneKey; the key covers the tune
	// parameters, so searches with different rounds, epsilon, or grid
	// never share a cell).
	memo *memo

	mu sync.Mutex
	// tuners holds one lazily-built closed-loop tuner per scale (keyed by
	// "is test scale"). Each owns its own exp.Suite, whose caches the
	// tuner's repeated adapt+simulate rounds coalesce through; they are
	// not counted against the memo's budget.
	tuners map[bool]*tune.Tuner

	// pool keeps the machines of clean completions for the server's
	// lifetime. Only compute draws from it, and only while holding a sem
	// token, so it never holds more than Workers machines; they are not
	// released when the server goes idle. Each tuner's suite pools its own
	// machines the same way, up to the peak number of its concurrent
	// simulations.
	pool sim.Pool

	requests atomic.Int64 // jobs accepted for processing
	hits     atomic.Int64 // served without running a simulation
	misses   atomic.Int64 // ran the pipeline
	failures atomic.Int64 // jobs that ended in an error
	rejected atomic.Int64 // 429s + 503s (capacity and drain)
	unsafe   atomic.Int64 // 422s (source IR failed the safety verifier)
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg.withDefaults(),
		start:  time.Now(),
		tuners: make(map[bool]*tune.Tuner),
	}
	s.memo = newMemo(s.cfg.CacheBytes)
	s.sem = make(chan struct{}, s.cfg.Workers)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting jobs (healthz goes unhealthy, new jobs get 503) and
// waits for every in-flight job to finish or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// Stats is the /statz payload.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	Requests  int64   `json:"requests"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Failures  int64   `json:"failures"`
	Rejected  int64   `json:"rejected"`
	Unsafe    int64   `json:"unsafe"`
	InFlight  int64   `json:"in_flight"`
	Draining  bool    `json:"draining"`
	// Cells counts the job-result and tune cells in the memo, computed or
	// in flight.
	Cells int `json:"cells"`
	// CacheBytes is the estimated size of the memo's completed cells, at
	// most CacheBudget; Evictions counts cells dropped to stay under it.
	CacheBytes  int64         `json:"cache_bytes"`
	CacheBudget int64         `json:"cache_budget"`
	Evictions   int64         `json:"evictions"`
	Pool        sim.PoolStats `json:"pool"`
}

// Snapshot returns the server's counters (the /statz payload, for in-process
// callers like the load harness).
func (s *Server) Snapshot() Stats {
	cells, bytes, evictions := s.memo.stats()
	return Stats{
		UptimeSec:   time.Since(s.start).Seconds(),
		Requests:    s.requests.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Failures:    s.failures.Load(),
		Rejected:    s.rejected.Load(),
		Unsafe:      s.unsafe.Load(),
		InFlight:    s.inflight.Load(),
		Draining:    s.draining.Load(),
		Cells:       cells,
		CacheBytes:  bytes,
		CacheBudget: s.cfg.CacheBytes,
		Evictions:   evictions,
		Pool:        s.pool.Stats(),
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.rejected.Add(1)
		http.Error(w, errDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	s.admitMu.Unlock()
	defer s.wg.Done()

	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := spec.normalize(s.cfg.DefaultTimeout)
	if err != nil {
		http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
		return
	}
	if j.Tune != nil {
		if !s.cfg.EnableTune {
			s.rejected.Add(1)
			http.Error(w, "tune jobs are disabled on this server (start sspserved with -tune)",
				http.StatusForbidden)
			return
		}
		if wantsSSE(r) {
			http.Error(w, "bad job: tune jobs do not support streaming", http.StatusBadRequest)
			return
		}
	}

	// Safety gate: user-submitted IR may carry hand-written slice regions,
	// and the machines will happily spawn whatever is attached. Any slice
	// in a source job must pass the speculation-safety verifier at the
	// ceiling of the machine the job would run on; violations are 422
	// with the machine-readable report, before the job can reach a cache
	// cell or a worker (unsafe programs are never cached, so a later
	// fixed submission is a fresh key and a fresh verification).
	if j.prog != nil {
		if rep, err := s.vetSource(j); err != nil {
			s.unsafe.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(UnsafeResponse{Error: err.Error(), Safety: rep})
			return
		}
	}

	// Admission: bound the total number of jobs in the building, counting
	// both running and queued. Everything past that is load the server
	// should not buffer; the client retries or backs off.
	if n := s.inflight.Add(1); n > int64(s.cfg.Workers+s.cfg.Queue) {
		s.inflight.Add(-1)
		s.rejected.Add(1)
		http.Error(w, ErrBusy.Error(), http.StatusTooManyRequests)
		return
	}
	defer s.inflight.Add(-1)
	s.requests.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), j.timeout)
	defer cancel()

	if j.Tune != nil {
		start := time.Now()
		res, hit, err := s.runTune(ctx, j)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, JobResponse{
			Key:    j.key,
			Cached: hit,
			WallMS: float64(time.Since(start)) / float64(time.Millisecond),
			Tune:   res,
		})
		return
	}

	if wantsSSE(r) {
		s.streamJob(ctx, w, j)
		return
	}
	start := time.Now()
	res, hit, err := s.runJob(ctx, j, s.runEntry(j))
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	writeJSON(w, JobResponse{
		Key:    j.key,
		Cached: hit,
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
		Result: res,
	})
}

// runTune resolves a tune-mode job through its memoization cell. The job
// holds one worker slot for admission accounting; the search's own
// simulations run on the tuner's experiment suite, whose worker pool is
// sized like the server's.
func (s *Server) runTune(ctx context.Context, j job) (res *tune.Result, hit bool, err error) {
	res, ran, err := memoDo(ctx, s.memo, tuneKey(j.key), func(ctx context.Context) (*tune.Result, error) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		grid := tune.FullGrid()
		if j.Tune.Grid == "quick" {
			grid = tune.QuickGrid()
		}
		params := tune.Params{MaxRounds: j.Tune.Rounds, Epsilon: j.Tune.Epsilon}
		return s.tunerFor(j.Test).Tune(ctx, j.Bench, j.Model, params, grid)
	}, tuneBytes)
	if ran {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	if err != nil {
		s.failures.Add(1)
		return nil, false, err
	}
	return res, !ran, nil
}

// tunerFor returns the closed-loop tuner for one scale, building it (and its
// experiment suite) on first use.
func (s *Server) tunerFor(test bool) *tune.Tuner {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn, ok := s.tuners[test]
	if !ok {
		scale := exp.ScalePaper
		if test {
			scale = exp.ScaleTest
		}
		suite := exp.NewSuite(scale)
		suite.Workers = s.cfg.Workers
		tn = tune.New(suite)
		s.tuners[test] = tn
	}
	return tn
}

// runEntry returns the memo entry of a job's result: a runCell.
func (s *Server) runEntry(j job) *entry {
	return s.memo.lookup(runKey(j.key), func() any { return new(runCell) })
}

// runJob resolves one admitted job through its memo entry (a runCell),
// reporting whether this request was served without running a simulation (a
// cached outcome or a coalesced ride on another request's run).
func (s *Server) runJob(ctx context.Context, j job, e *entry) (res *JobResult, hit bool, err error) {
	rc := e.cell.(*runCell)
	res, ran, err := doCell(ctx, s.memo, e, &rc.cell, func(ctx context.Context) (*JobResult, error) {
		// Only the actual runner needs a worker slot; waiting here is the
		// admission queue.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return s.compute(ctx, j, &rc.cycles)
	}, runBytes)
	if ran {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	if err != nil {
		s.failures.Add(1)
		return nil, false, err
	}
	return res, !ran, nil
}

// machineConfig mirrors exp.Suite.machineConfig exactly — same defaults,
// same tiny-memory scaling, same watchdog, fast-forward on — so served
// results are byte-identical to the experiment matrix and the golden-stats
// baseline.
func machineConfig(model sim.Model, test bool) sim.Config {
	var c sim.Config
	if model == sim.InOrder {
		c = sim.DefaultInOrder()
	} else {
		c = sim.DefaultOOO()
	}
	if test {
		c.UseTinyMem()
	}
	c.MaxCycles = 4_000_000_000
	c.FastForward = true
	return c
}

// progSetFor builds and profiles the job's program once per (program, scale);
// every option set, variant, and model over it shares the result.
func (s *Server) progSetFor(ctx context.Context, j job) (*progSet, error) {
	ps, _, err := memoDo(ctx, s.memo, progKey{j.Bench, j.Src, j.Test}, func(ctx context.Context) (*progSet, error) {
		ps := new(progSet)
		if j.Bench != "" {
			spec, err := workloads.ByName(j.Bench)
			if err != nil {
				return nil, err
			}
			scale := spec.Scale
			if j.Test {
				scale = spec.TestScale
			}
			ps.orig, ps.want = spec.Build(scale)
			ps.check = true
		} else {
			ps.orig = j.prog
		}
		// Profile on the in-order model at the job's scale, like the
		// experiment suite: one profiling run feeds every treatment.
		prof, err := profile.CollectContext(ctx, ps.orig, machineConfig(sim.InOrder, j.Test))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		ps.prof = prof
		return ps, nil
	}, progSetBytes)
	return ps, err
}

// buildFor adapts (for ssp variants), links, and predecodes the job's binary
// once per (program, scale, variant, options); both machine models share it.
func (s *Server) buildFor(ctx context.Context, j job, ps *progSet) (*build, error) {
	key := buildKey{progKey{j.Bench, j.Src, j.Test}, j.Variant, j.Options}
	adapted := j.Variant == varSSP
	b, _, err := memoDo(ctx, s.memo, key, func(ctx context.Context) (*build, error) {
		p := ps.orig
		b := new(build)
		if adapted {
			label := j.Bench
			if label == "" {
				label = "source"
			}
			adapted, rep, err := ssp.Adapt(p, ps.prof, j.Options, label)
			if err != nil {
				return nil, fmt.Errorf("adapt: %w", err)
			}
			p, b.slices = adapted, rep.NumSlices()
		}
		img, err := ir.Link(p)
		if err != nil {
			return nil, err
		}
		b.dp = sim.Predecode(img)
		sim.ThreadedProgram(b.dp) // every machine model runs threaded
		return b, nil
	}, func(b *build) int64 { return buildBytes(b, adapted) })
	return b, err
}

// compute runs the full pipeline for one job: build+profile (cached),
// adapt+predecode (cached), then simulate on a pooled machine with the
// progress hook installed. Machine lifecycle follows the suite's discipline:
// only a clean, verified completion returns its machine to the pool; every
// other exit — error, cancellation, watchdog, checksum mismatch, panic —
// discards it. A panic (a simulator bug, tripped by one job's program) is
// recovered into that job's error instead of taking the server down.
func (s *Server) compute(ctx context.Context, j job, cycles *atomic.Int64) (res *JobResult, err error) {
	ps, err := s.progSetFor(ctx, j)
	if err != nil {
		return nil, err
	}
	b, err := s.buildFor(ctx, j, ps)
	if err != nil {
		return nil, err
	}
	m := s.pool.Get(machineConfig(j.Model, j.Test), b.dp)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic during simulation: %v", r)
		}
	}()
	// ProgressHooks keeps the default accounting bit-for-bit (the result
	// stays cacheable and golden-comparable) while exposing the live cycle
	// count to this job's SSE streams.
	m.SetCycleHooks(sim.ProgressHooks{C: cycles})
	r, err := m.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if r.TimedOut {
		return nil, fmt.Errorf("watchdog expired after %d cycles", r.Cycles)
	}
	if ps.check {
		if got := m.Mem.Load(workloads.ResultAddr); got != ps.want {
			return nil, fmt.Errorf("checksum %d, want %d", got, ps.want)
		}
	}
	s.pool.Put(m)
	if err := check.Conservation(r); err != nil {
		return nil, err
	}
	return toJobResult(r, b.slices), nil
}

// UnsafeResponse is the HTTP 422 payload for source jobs whose IR fails the
// speculation-safety verifier: the first violation as a message plus the
// full machine-readable report (per-slice certificates and every violation).
type UnsafeResponse struct {
	Error  string            `json:"error"`
	Safety *ssp.SafetyReport `json:"safety"`
}

// vetSource statically verifies user-submitted IR before admission: any
// slice regions it carries must be provably bounded and state-isolated at
// the MaxSpecInstrs ceiling of the machine the job would run on. Programs
// without slices pass trivially. The report is returned either way so the
// 422 path can hand it to the client.
func (s *Server) vetSource(j job) (*ssp.SafetyReport, error) {
	return ssp.VerifySafety(j.prog, machineConfig(j.Model, j.Test).MaxSpecInstrs)
}

// statusOf maps a job error to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
