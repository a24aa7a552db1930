package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/check"
	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/serve"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// The serve-mixed load: an open loop over two client connections. The
// nominal step runs for half the measuring time; then each ladder step runs
// for a twentieth of it. A step meets the latency limit when every request
// succeeded, its p99 latency (from due time) is within latencyLimit, and the
// backlog when its last request falls due is at most what the offered rate
// brings in within latencyLimit (the queue is not growing past the limit).
// serve_max_rate_jps is the highest rate at which that step and every lower
// one meet it.
const (
	nominalRate  = 400
	uniqueShare  = 0.2
	latencyLimit = 50 * time.Millisecond
	conns        = 2
	serveSetups  = 5
	goldenPath   = "internal/exp/testdata/golden_stats.json"
)

var ladderRates = []int{800, 1200, 1600, 2000}

// goldenCell is the stat subset of internal/exp/testdata/golden_stats.json,
// field-compatible with serve.JobResult.
type goldenCell struct {
	Cycles      int64
	Breakdown   [sim.NumCategories]int64
	MainInstrs  int64
	SpecInstrs  int64
	Spawns      int64
	ChkTaken    int64
	Mispredicts int64
	MemAccesses uint64
	MemL1Hits   uint64
	MissCycles  uint64
	TLBMisses   uint64
}

func goldenOf(r *serve.JobResult) goldenCell {
	return goldenCell{r.Cycles, r.Breakdown, r.MainInstrs, r.SpecInstrs, r.Spawns, r.ChkTaken,
		r.Mispredicts, r.MemAccesses, r.MemL1Hits, r.MissCycles, r.TLBMisses}
}

// uniqueJob is one generated source program and its treatment.
type uniqueJob struct {
	src     string
	model   sim.Model
	variant string
}

// serveCase is one request of the load: a built-in cell or a unique job.
type serveCase struct {
	golden string // built-in: golden key bench/model/variant
	unique int    // index into the unique jobs, -1 for a built-in
	body   []byte
}

// sample is one request's timeline and answer: due, handed to a connection
// by the dispatcher (queued), written to the socket (sent), answered (done).
type sample struct {
	due, queued, sent, done time.Time
	status                  int
	err                     error
	resp                    serve.JobResponse
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK && s.resp.Result != nil }

// latencyMS is the request's latency from its due time.
func (s *sample) latencyMS() float64 { return float64(s.done.Sub(s.due)) / 1e6 }

// step is one open-loop step at a fixed offered rate.
type step struct {
	rate    int
	cases   []serveCase
	samples []sample
	backlog int // requests due but unanswered when the last one fell due
	wall    time.Duration
	cpu     time.Duration
}

// harness is an in-process sspserved on a loopback socket plus its client.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
}

func startServer() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{srv: serve.New(serve.Config{Workers: workers}), served: make(chan error, 1)}
	h.hs = &http.Server{Handler: h.srv}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.url = "http://" + ln.Addr().String()
	h.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	h.client = &http.Client{Transport: h.tr, Timeout: 2 * time.Minute}
	return h, nil
}

// stop drains the server, closes it and waits for its serve loop to exit.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.srv.Drain(ctx)
	if e := h.hs.Shutdown(ctx); err == nil {
		err = e
	}
	h.tr.CloseIdleConnections()
	if e := <-h.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

func (h *harness) post(body []byte, out *serve.JobResponse) (int, error) {
	resp, err := h.client.Post(h.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (h *harness) statz() (serve.Stats, error) {
	var st serve.Stats
	resp, err := h.client.Get(h.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// builtins are the 48 golden cells: every benchmark × model × {base, ssp}
// at test scale.
func builtins() []serveCase {
	var out []serveCase
	for _, b := range exp.Benchmarks() {
		for _, m := range []sim.Model{sim.InOrder, sim.OOO} {
			for _, v := range []string{"base", "ssp"} {
				body, _ := json.Marshal(serve.JobSpec{Bench: b, Model: m.String(), Variant: v, Scale: "test"})
				out = append(out, serveCase{golden: b + "/" + m.String() + "/" + v, unique: -1, body: body})
			}
		}
	}
	return out
}

// warm starts a server and runs every built-in cell once (set-up).
func warm(r *report, golden map[string]goldenCell) (*harness, error) {
	h, err := startServer()
	if err != nil {
		return nil, err
	}
	cases := builtins()
	samples := make([]sample, len(cases))
	parallel(len(cases), func(i int) {
		samples[i].status, samples[i].err = h.post(cases[i].body, &samples[i].resp)
	})
	for i := range cases {
		checkSample(r, &cases[i], &samples[i], golden, nil)
	}
	return h, nil
}

// checkSample is the output-identity gate of one request: a built-in must
// match the golden stats exactly, a unique job its in-process recompute.
func checkSample(r *report, c *serveCase, s *sample, golden map[string]goldenCell, want []*serve.JobResult) {
	if !s.ok() {
		r.check(false, "request %s: status %d, %v", c.golden, s.status, s.err)
		return
	}
	if c.unique < 0 {
		g, ok := golden[c.golden]
		r.check(ok && goldenOf(s.resp.Result) == g && sameJSON(goldenOf(s.resp.Result), g),
			"%s: served stats differ from %s", c.golden, goldenPath)
		return
	}
	w := want[c.unique]
	r.check(w != nil && sameJSON(s.resp.Result, w), "unique job %d: served result differs from its in-process recompute", c.unique)
}

// generate draws the requests of every step from the seed: about
// uniqueShare unique source programs (workloads.RandomProgram rendered with
// ir.Format, over both models and base/ssp), the rest built-in cells.
func generate(seed int64, rates []int, lengths []time.Duration) ([][]serveCase, []uniqueJob) {
	rng := rand.New(rand.NewSource(seed))
	base := builtins()
	seen := make(map[string]bool)
	var uniques []uniqueJob
	next := seed * 1_000_003
	steps := make([][]serveCase, len(rates))
	for si, rate := range rates {
		n := stepRequests(rate, lengths[si])
		for i := 0; i < n; i++ {
			if rng.Float64() >= uniqueShare {
				steps[si] = append(steps[si], base[rng.Intn(len(base))])
				continue
			}
			var src string
			for src == "" || seen[src] {
				src = ir.Format(workloads.RandomProgram(next))
				next++
			}
			seen[src] = true
			u := uniqueJob{src: src, model: sim.InOrder, variant: "base"}
			if rng.Intn(2) == 1 {
				u.model = sim.OOO
			}
			if rng.Intn(2) == 1 {
				u.variant = "ssp"
			}
			body, _ := json.Marshal(serve.JobSpec{Source: src, Model: u.model.String(), Variant: u.variant, Scale: "test"})
			steps[si] = append(steps[si], serveCase{unique: len(uniques), body: body})
			uniques = append(uniques, u)
		}
	}
	return steps, uniques
}

// run offers cases at rate over conns connections. The dispatcher enqueues
// each request at its due time whatever the server is doing (open loop).
func (h *harness) run(rate int, cases []serveCase) *step {
	st := &step{rate: rate, cases: cases, samples: make([]sample, len(cases))}
	// The queue holds the whole step so the dispatcher never blocks on a
	// slow server; requests waiting in it are the client-side backlog.
	queue := make(chan int, len(cases))
	var completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &st.samples[i]
				s.sent = time.Now()
				s.status, s.err = h.post(cases[i].body, &s.resp)
				s.done = time.Now()
				completed.Add(1)
			}
		}()
	}
	cpu0 := cpuTime()
	start := time.Now().Add(5 * time.Millisecond)
	for i := range cases {
		due := start.Add(dueOffset(i, rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.samples[i].due, st.samples[i].queued = due, time.Now()
		queue <- i
	}
	st.backlog = len(cases) - int(completed.Load())
	close(queue)
	wg.Wait()
	st.cpu = cpuTime() - cpu0
	for _, s := range st.samples {
		st.wall = max(st.wall, s.done.Sub(start))
	}
	return st
}

// lateMS is how late the dispatcher enqueued each request: the open-loop
// generator's own lateness, which must stay far below the latencies.
func (st *step) lateMS() []float64 {
	out := make([]float64, len(st.samples))
	for i, s := range st.samples {
		out[i] = float64(s.queued.Sub(s.due)) / 1e6
	}
	return out
}

// meets applies the step's latency-limit and backlog rule.
func (st *step) meets() (bool, float64) {
	var lat []float64
	for i := range st.samples {
		if !st.samples[i].ok() {
			return false, 0
		}
		lat = append(lat, st.samples[i].latencyMS())
	}
	s := sortedCopy(lat)
	if beyond(len(s), 0.99) < minBeyond {
		return false, 0
	}
	p99 := quantile(s, 0.99)
	allowed := int(float64(st.rate) * latencyLimit.Seconds())
	return p99 <= float64(latencyLimit)/1e6 && st.backlog <= allowed, p99
}

// recomputed is one unique job recomputed through the public layers.
type recomputed struct {
	key   exp.RunKey
	res   *sim.Result
	job   *serve.JobResult
	simNS int64
	sizes []int // slice sizes of an ssp job's adaptation
}

// recompute runs a unique job through the layers' public functions the way
// the server does (parse, safety vet, profile, adapt, link, predecode,
// simulate, conservation), with machine configs from a test-scale suite.
func recompute(ctx context.Context, s *exp.Suite, pool *sim.Pool, u uniqueJob, id int, tr *tracer) (*recomputed, error) {
	trace := fmt.Sprintf("unique-%d", id)
	root := tr.begin("verify.job", trace, 0)
	defer tr.finish(root)
	var p *ir.Program
	var err error
	tr.do("ir.parse", trace, root, func() { p, err = ir.Parse(u.src) })
	if err != nil {
		return nil, err
	}
	cfg := s.MachineConfig(u.model)
	var safety *ssp.SafetyReport
	tr.do("ssp.safety", trace, root, func() { safety = ssp.AnalyzeSafety(p, cfg.MaxSpecInstrs) })
	if err := safety.Err(); err != nil {
		return nil, err
	}
	var prof *profile.Profile
	tr.do("profile.collect", trace, root, func() { prof, err = profile.CollectContext(ctx, p, s.MachineConfig(sim.InOrder)) })
	if err != nil {
		return nil, err
	}
	var sizes []int
	if u.variant == "ssp" {
		var rep *ssp.Report
		tr.do("ssp.adapt", trace, root, func() { p, rep, err = ssp.Adapt(p, prof, ssp.DefaultOptions(), "source") })
		if err != nil {
			return nil, err
		}
		sizes = sliceSizes(rep)
	}
	var img *ir.Image
	tr.do("ir.link", trace, root, func() { img, err = ir.Link(p) })
	if err != nil {
		return nil, err
	}
	var dp *decode.Program
	tr.do("decode.predecode", trace, root, func() { dp = sim.Predecode(img) })
	tr.do("threaded.compile", trace, root, func() { sim.ThreadedProgram(dp) })
	m := pool.Get(cfg, dp)
	sid := tr.begin("sim.run", trace, root)
	t0 := time.Now()
	res, err := m.RunContext(ctx)
	simNS := time.Since(t0).Nanoseconds()
	tr.finish(sid)
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("watchdog expired")
	}
	pool.Put(m)
	tr.do("check.conservation", trace, root, func() { err = check.Conservation(res) })
	if err != nil {
		return nil, err
	}
	job := &serve.JobResult{
		Cycles: res.Cycles, Breakdown: res.Breakdown, MainInstrs: res.MainInstrs, SpecInstrs: res.SpecInstrs,
		Spawns: res.Spawns, ChkTaken: res.ChkTaken, Mispredicts: res.Mispredicts,
		MemAccesses: res.Hier.Totals.Accesses, MemL1Hits: res.Hier.Totals.Hits[0][0],
		MissCycles: res.Hier.Totals.MissCycles, TLBMisses: res.Hier.Totals.TLBMisses, Slices: len(sizes),
	}
	key := exp.RunKey{Bench: trace, Model: u.model, Variant: exp.Variant(u.variant)}
	return &recomputed{key: key, res: res, job: job, simNS: simNS, sizes: sizes}, nil
}

// recomputeAll recomputes every unique job on workers goroutines; a job that
// fails to recompute leaves a nil entry, which fails its request's check.
// The full stat vectors feed only a traced run's counters; an untraced run
// drops them to keep its memory to what the server itself holds.
func recomputeAll(ctx context.Context, r *report, uniques []uniqueJob, tr *tracer) []*recomputed {
	s := exp.NewSuite(exp.ScaleTest)
	var pool sim.Pool
	out := make([]*recomputed, len(uniques))
	parallel(len(uniques), func(i int) {
		rc, err := recompute(ctx, s, &pool, uniques[i], i, tr)
		if err != nil {
			r.check(false, "unique job %d: recompute: %v", i, err)
			return
		}
		if tr == nil {
			rc.res = nil
		}
		out[i] = rc
	})
	return out
}

func loadGolden() (map[string]goldenCell, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g map[string]goldenCell
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func runServe(ctx context.Context, o options, r *report) error {
	if o.writeRef {
		return fmt.Errorf("serve-mixed has no reference file: it checks against %s and in-process recomputes", goldenPath)
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	// Set-up: start the server and warm the built-in cells, serveSetups
	// times; the last server carries the load.
	var setups []time.Duration
	var h *harness
	nSetups := serveSetups
	if o.trace {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if h, err = warm(r, golden); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	rssSetup := maxRSSKiB()

	total := time.Duration(o.seconds) * time.Second
	rates := []int{nominalRate}
	lengths := []time.Duration{total / 2}
	if !o.trace {
		for _, rate := range ladderRates {
			rates = append(rates, rate)
			lengths = append(lengths, total/20)
		}
	}
	plan, uniques := generate(o.seed, rates, lengths)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var steps []*step
	var rssNominal int64
	var nominalStats serve.Stats
	for i, rate := range rates {
		steps = append(steps, h.run(rate, plan[i]))
		if i == 0 {
			rssNominal = maxRSSKiB()
			if nominalStats, err = h.statz(); err != nil {
				return err
			}
		}
	}
	if err := h.stop(); err != nil {
		return err
	}
	nom := steps[0]
	nomUniques := 0
	for _, c := range nom.cases {
		if c.unique >= 0 {
			nomUniques++
		}
	}

	// Verification after the timed window: every unique job recomputed in
	// process, every answer checked. A traced run (nominal step only)
	// recomputes twice, untraced then traced, for the tracing overhead.
	var want []*recomputed
	var traced, untraced time.Duration
	if o.trace {
		t0 := time.Now()
		plain := recomputeAll(ctx, r, uniques, nil)
		untraced = time.Since(t0)
		t1 := time.Now()
		want = recomputeAll(ctx, r, uniques, tr)
		traced = time.Since(t1)
		for i := range want {
			r.check(plain[i] != nil && want[i] != nil && sameJSON(plain[i].job, want[i].job), "unique job %d: traced recompute differs from untraced", i)
		}
	} else {
		want = recomputeAll(ctx, r, uniques, nil)
	}
	jobs := make([]*serve.JobResult, len(want))
	for i, w := range want {
		if w != nil {
			jobs[i] = w.job
		}
	}
	for _, st := range steps {
		for i := range st.cases {
			checkSample(r, &st.cases[i], &st.samples[i], golden, jobs)
		}
	}

	// Latency split of the nominal step.
	var all, hits, misses, overheadMS []float64
	for i := range nom.samples {
		s := &nom.samples[i]
		if !s.ok() {
			continue
		}
		all = append(all, s.latencyMS())
		if s.resp.Cached {
			hits = append(hits, s.latencyMS())
		} else {
			misses = append(misses, s.latencyMS())
		}
		overheadMS = append(overheadMS, float64(s.done.Sub(s.sent))/1e6-s.resp.WallMS)
		if o.trace {
			trace := fmt.Sprintf("req-%d", i)
			root := tr.add("serve.job", trace, 0, s.due, s.done)
			tr.add("client.queue", trace, root, s.due, s.sent)
			req := tr.add("client.request", trace, root, s.sent, s.done)
			// The server's own time (WallMS) sits inside the round trip;
			// the rest is HTTP, JSON and the client.
			gap := (s.done.Sub(s.sent) - time.Duration(s.resp.WallMS*1e6)) / 2
			tr.add("serve.server", trace, req, s.sent.Add(gap), s.done.Add(-gap))
		}
	}
	what := fmt.Sprintf("job latency from due time at %d jobs/s", nominalRate)
	r.setDist("op_p50_ms", "op_tail_ms", all, what)
	r.setDist("serve_p50_ms", "", all, what)
	if s := sortedCopy(all); beyond(len(s), 0.99) >= minBeyond {
		r.set("serve_p99_ms", quantile(s, 0.99), len(s), fmt.Sprintf("p99 %s; %d beyond", what, beyond(len(s), 0.99)))
	}
	r.setDist("serve.hit_ms_p50", "", hits, "hit latency from due time")
	r.setDist("serve.miss_ms_p50", "serve.miss_ms_tail", misses, "miss latency from due time")
	r.setDist("serve.http_overhead_ms", "", overheadMS, "round trip - server WallMS")
	r.set("serve.hit_share", ratio(float64(len(hits)), float64(len(all))), len(all), "cached responses / answered")
	late := sortedCopy(nom.lateMS())
	if v, lvl, ok := tail(late); ok {
		r.set("serve.gen_late_ms", v, len(late), fmt.Sprintf("p%.2f of enqueue - due time (open-loop generator lateness)", 100*lvl))
	}
	r.set("serve.cells", float64(nominalStats.Cells), 1, "/statz cells after the nominal step")
	r.set("serve.failures", float64(nominalStats.Failures), 1, "/statz")
	r.set("serve.rejected", float64(nominalStats.Rejected), 1, "/statz")
	r.set("serve.unsafe", float64(nominalStats.Unsafe), 1, "/statz")
	if nomUniques > 0 {
		r.set("serve.rss_kib_per_unique", float64(rssNominal-rssSetup)/float64(nomUniques), nomUniques, "max-RSS growth over the nominal step / unique jobs")
	}
	r.set("wall_s", nom.wall.Seconds(), len(nom.samples), fmt.Sprintf("nominal step: first due time to last answer (%d requests at %d jobs/s), set by the schedule", len(nom.samples), nominalRate))
	r.set("cpu_s", nom.cpu.Seconds(), len(nom.samples), "process CPU (server and client) over the nominal step")
	r.set("setup_s", median(secs(setups)), len(setups), "start the server and warm the 48 built-in cells")
	r.setProcess()

	var ladder []string
	maxRate, chain := 0, true
	for _, st := range steps {
		ok, p99 := st.meets()
		if chain = chain && ok; chain {
			maxRate = st.rate
		}
		ladder = append(ladder, fmt.Sprintf("  %5d jobs/s  n=%5d  p99=%8.2f ms  backlog=%4d  late_p99=%7.2f ms  meets=%v",
			st.rate, len(st.samples), p99, st.backlog, quantile(sortedCopy(st.lateMS()), 0.99), ok))
	}
	r.printf("open-loop steps (limit: p99 <= %v from due time, no failures, backlog <= rate x limit):\n%s", latencyLimit, strings.Join(ladder, "\n"))
	if !o.trace {
		r.set("serve_max_rate_jps", float64(maxRate), len(steps), fmt.Sprintf("highest step of %v meeting the limit with every lower step", rates))
		return nil
	}
	results := make(map[exp.RunKey]*sim.Result)
	sizes := make(map[string][]int)
	var keys []exp.RunKey
	var cells []*tracedCell
	for _, w := range want {
		if w != nil {
			results[w.key] = w.res
			keys = append(keys, w.key)
			cells = append(cells, &tracedCell{res: w.res, simNS: w.simNS})
			if w.sizes != nil {
				sizes[w.key.Bench] = w.sizes
			}
		}
	}
	setSliceCounters(r, sizes, "ssp source jobs")
	ls := tr.layers()
	setLayerTimes(r, ls, "traced self time over the recomputed unique jobs")
	setSimBusy(r, keys, cells)
	setMatrixCounters(r, results, nil, false)
	setOverhead(r, traced, untraced, fmt.Sprintf("in-process recompute of %d unique jobs", len(uniques)))
	return finishTrace(o, r, tr, ls)
}
