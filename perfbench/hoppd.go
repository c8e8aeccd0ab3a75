package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hopp/internal/service"
	"hopp/internal/sim"
)

// The hoppd-mix traffic: two closed-loop clients over two connections
// against an engine with two workers (the host has two cores). A unit
// submits every catalog workload once at quick scale on a fresh run
// seed, so it is never cached, in an order the seeded sampler shuffles;
// each fresh run is followed by cached resubmits of earlier requests.
// Workload i runs system × fraction combination (i + unit) mod 6, so a
// round of six units runs every catalog point once and the latency
// distribution does not hang on which systems a seed happens to draw.
// Sweeps alternate with the first fresh units: sweepWorkloads × three
// systems × two fractions (24 points) on a fresh seed, submitted and
// followed through its results stream to the end.
//
// The poll interval is the one the service's own HTTP tests poll runs
// and sweeps with. The repository has no record of production traffic,
// so the other ratios are choices: two cache hits per fresh run give the
// cache-hit median at least 720 samples a run while most of the phase's
// CPU stays on the uncached path, and five sweeps give sweep_cpu_s a
// median of five.
const (
	hoppdClients      = 2
	hoppdWorkers      = 2
	hoppdRepeats      = 2 // cached resubmits per fresh run
	hoppdSweeps       = 5
	hoppdRounds       = 3 // companion rounds: 360 uncached runs
	hoppdPoll         = 5 * time.Millisecond
	hoppdCheckedFresh = 12 // fresh runs re-simulated in-process at check time
	hoppdSeedsPerUnit = 1000
)

var (
	hoppdSystems = []string{"hopp", "fastswap", "spp"}
	hoppdFracs   = []float64{0.5, 0.25}
	// hoppdCombos is every system × fraction pair; a round has one unit
	// per pair.
	hoppdCombos = len(hoppdSystems) * len(hoppdFracs)
	// sweepWorkloads is the sweep grid's workload axis: a streaming, a
	// sorting, a graph and a stencil application.
	sweepWorkloads = []string{"sequential", "quicksort", "graphx-pr", "npb-mg"}
)

// freshRun is one uncached submission and its answer.
type freshRun struct {
	req     service.RunRequest
	metrics []byte
}

// cachedRun is a resubmission and the fresh run it repeats.
type cachedRun struct {
	of      int
	cached  bool
	metrics []byte
}

// sweepRun is one sweep's grid and the points its results stream gave.
type sweepRun struct {
	req    service.SweepRequest
	points []service.SweepPoint
}

// hoppdMix is the hoppd-mix phase.
type hoppdMix struct {
	seed   int64
	eng    *service.Engine
	srv    *httptest.Server
	client *http.Client
	rng    *rand.Rand
	units  int // fresh-run units done

	mu       sync.Mutex
	o        ops
	fresh    []freshRun
	cached   []cachedRun
	sweeps   []sweepRun
	runMS    []float64 // uncached submit→result
	cachedUS []float64 // cache-hit submit→result
	submitMS []float64 // uncached POST round trip
	statusUS []float64 // GET /v1/runs/{id} round trip
	queueMS  []float64 // submit→result minus the job's wall_ns
	workerMS []float64 // the job's wall_ns
	sweepS   []float64
	// freshCPU and sweepCPU are the process CPU time of the fresh-run
	// units and of the sweeps.
	freshCPU, sweepCPU time.Duration
	metricsAt          [2]service.MetricsSnapshot
}

func (h *hoppdMix) setup(seed int64) error {
	h.close()
	*h = hoppdMix{seed: seed}
	h.eng = service.NewEngine(service.Options{Workers: hoppdWorkers, CacheEntries: 1 << 14, RetainRuns: 1 << 14})
	h.srv = httptest.NewServer(service.NewHandler(h.eng))
	h.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: hoppdClients, MaxIdleConnsPerHost: hoppdClients}}
	// Warm-up: one uncached run and its cached repeat, on a seed the timed
	// phase never uses.
	frac := 0.5
	req := service.RunRequest{Workload: "sequential", System: "hopp", Frac: &frac, Seed: -seed - 1, Quick: true}
	for i := 0; i < 2; i++ {
		if _, _, err := h.runToEnd(nil, spanRef{}, req); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	h.fresh, h.cached, h.runMS, h.cachedUS, h.submitMS, h.statusUS, h.queueMS, h.workerMS = nil, nil, nil, nil, nil, nil, nil, nil
	h.rng = rand.New(rand.NewSource(seed))
	if err := h.readMetrics(0); err != nil {
		return err
	}
	h.o = ops{}
	return nil
}

func (h *hoppdMix) close() {
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
	if h.eng != nil {
		h.eng.Close()
		h.eng = nil
	}
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
}

// do sends one request and reads the whole answer, counting it as one
// operation; want is the status codes that count as success.
func (h *hoppdMix) do(method, path string, body []byte, want ...int) ([]byte, int, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, h.srv.URL+path, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		resp, err = h.client.Do(req)
		if err == nil {
			var out []byte
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			d := time.Since(t0)
			if err == nil {
				for _, w := range want {
					if resp.StatusCode == w {
						h.count(false)
						return out, resp.StatusCode, d, nil
					}
				}
				err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
			}
		}
	}
	h.count(true)
	return nil, 0, time.Since(t0), err
}

func (h *hoppdMix) count(failed bool) {
	h.mu.Lock()
	h.o.attempted++
	if failed {
		h.o.failed++
	}
	h.mu.Unlock()
}

// runToEnd submits req and polls its status until the job is terminal,
// returning the final status and the submit→result latency.
func (h *hoppdMix) runToEnd(tr *tracer, parent spanRef, req service.RunRequest) (service.RunStatus, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.RunStatus{}, 0, err
	}
	sp := tr.begin("http.POST /v1/runs", parent)
	t0 := time.Now()
	out, code, d, err := h.do("POST", "/v1/runs", body, http.StatusOK, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		return service.RunStatus{}, 0, err
	}
	var st service.RunStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return st, 0, fmt.Errorf("submit answer: %w", err)
	}
	if code == http.StatusAccepted {
		h.mu.Lock()
		h.submitMS = append(h.submitMS, float64(d)/1e6)
		h.mu.Unlock()
	}
	for st.State == service.StateQueued || st.State == service.StateRunning {
		time.Sleep(hoppdPoll)
		sp := tr.begin("http.GET /v1/runs/{id}", parent)
		out, _, d, err := h.do("GET", "/v1/runs/"+st.ID, nil, http.StatusOK)
		tr.end(sp)
		if err != nil {
			return st, 0, err
		}
		h.mu.Lock()
		h.statusUS = append(h.statusUS, float64(d)/1e3)
		h.mu.Unlock()
		st = service.RunStatus{}
		if err := json.Unmarshal(out, &st); err != nil {
			return st, 0, fmt.Errorf("status answer: %w", err)
		}
	}
	lat := time.Since(t0)
	if st.State != service.StateDone {
		return st, lat, fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, lat, nil
}

// freshUnit submits every catalog workload once, split between the
// two clients, each fresh run followed by cached repeats. Client c sends
// requests c, c+2, … of the shuffled list. Its repeats are drawn, by a
// sampler of its own seeded here, from the fresh runs of earlier units
// and its own earlier requests in this one, so the traffic and the order
// of h.fresh are a function of the seed alone, not of how the two
// clients interleave.
func (h *hoppdMix) freshUnit(tr *tracer) error {
	names := service.WorkloadNames()
	reqs := make([]service.RunRequest, len(names))
	for i, name := range names {
		c := (i + h.units) % hoppdCombos
		frac := hoppdFracs[c%len(hoppdFracs)]
		reqs[i] = service.RunRequest{
			Workload: name,
			System:   hoppdSystems[c/len(hoppdFracs)],
			Frac:     &frac,
			Seed:     h.seed*1_000_000 + int64(h.units*hoppdSeedsPerUnit+i),
			Quick:    true,
		}
	}
	h.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	seeds := [hoppdClients]int64{h.rng.Int63(), h.rng.Int63()}
	h.units++
	// Request i of this unit is h.fresh[base+i] once the unit ends.
	h.mu.Lock()
	base := len(h.fresh)
	for _, r := range reqs {
		h.fresh = append(h.fresh, freshRun{req: r})
	}
	h.mu.Unlock()
	var wg sync.WaitGroup
	errs := make([]error, hoppdClients)
	for c := 0; c < hoppdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seeds[c]))
			own := 0
			for i := c; i < len(reqs); i += hoppdClients {
				own++
				// Repeat k < base is an earlier unit's run k; beyond
				// that, this client's own requests c, c+2, … so far.
				pick := func() int {
					k := crng.Intn(base + own)
					if k < base {
						return k
					}
					return base + c + hoppdClients*(k-base)
				}
				if err := h.freshThenRepeats(tr, pick, base+i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// freshThenRepeats runs h.fresh[at] to its end, then resubmits the
// earlier requests pick chooses, which the result cache answers.
func (h *hoppdMix) freshThenRepeats(tr *tracer, pick func() int, at int) error {
	h.mu.Lock()
	req := h.fresh[at].req
	h.mu.Unlock()
	sp := tr.begin("hoppd.request", spanRef{})
	st, lat, err := h.runToEnd(tr, sp, req)
	tr.end(sp)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.runMS = append(h.runMS, float64(lat)/1e6)
	h.workerMS = append(h.workerMS, float64(st.WallNS)/1e6)
	h.queueMS = append(h.queueMS, float64(lat-time.Duration(st.WallNS))/1e6)
	h.fresh[at].metrics = st.Metrics
	h.mu.Unlock()
	if st.Cached {
		return fmt.Errorf("fresh run %s answered from the cache", st.ID)
	}
	for r := 0; r < hoppdRepeats; r++ {
		of := pick()
		h.mu.Lock()
		again := h.fresh[of].req
		h.mu.Unlock()
		sp := tr.begin("hoppd.request", spanRef{})
		st, lat, err := h.runToEnd(tr, sp, again)
		tr.end(sp)
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.cachedUS = append(h.cachedUS, float64(lat)/1e3)
		h.cached = append(h.cached, cachedRun{of: of, cached: st.Cached, metrics: st.Metrics})
		h.mu.Unlock()
	}
	return nil
}

// sweep submits the sweep grid on a fresh seed and follows its results
// stream to the last point.
func (h *hoppdMix) sweep(tr *tracer, n int) error {
	req := service.SweepRequest{
		Workloads: sweepWorkloads,
		Systems:   hoppdSystems,
		Fracs:     hoppdFracs,
		Seeds:     []int64{h.seed*1_000_000 + 900_000 + int64(n)},
		Quick:     true,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	sp := tr.begin("hoppd.sweep", spanRef{})
	defer tr.end(sp)
	t0 := time.Now()
	psp := tr.begin("http.POST /v1/sweeps", sp)
	out, _, _, err := h.do("POST", "/v1/sweeps", body, http.StatusAccepted)
	tr.end(psp)
	if err != nil {
		return err
	}
	var st service.RunStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return fmt.Errorf("sweep answer: %w", err)
	}
	fsp := tr.begin("http.GET /v1/sweeps/{id}/results?follow", sp)
	points, err := h.follow("/v1/sweeps/" + st.ID + "/results?follow=true")
	tr.end(fsp)
	if err != nil {
		return err
	}
	h.sweepS = append(h.sweepS, time.Since(t0).Seconds())
	h.sweeps = append(h.sweeps, sweepRun{req: req, points: points})
	return nil
}

// follow reads an NDJSON results stream to its end.
func (h *hoppdMix) follow(path string) ([]service.SweepPoint, error) {
	resp, err := h.client.Get(h.srv.URL + path)
	if err != nil {
		h.count(true)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.count(true)
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	var points []service.SweepPoint
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var p service.SweepPoint
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			h.count(true)
			return nil, fmt.Errorf("results line: %w", err)
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		h.count(true)
		return nil, err
	}
	h.count(false)
	return points, nil
}

func (h *hoppdMix) readMetrics(i int) error {
	out, _, _, err := h.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, &h.metricsAt[i])
}

func (h *hoppdMix) unit(tr *tracer) (bool, error) {
	c0 := cpuNow()
	if len(h.sweeps) < hoppdSweeps && len(h.sweeps) <= h.units {
		err := h.sweep(tr, len(h.sweeps))
		h.sweepCPU += cpuNow() - c0
		return false, err
	}
	err := h.freshUnit(tr)
	h.freshCPU += cpuNow() - c0
	if err != nil {
		return false, err
	}
	return h.units%hoppdCombos == 0 && len(h.sweeps) == hoppdSweeps, nil
}

// companionUnits is the sweeps plus hoppdRounds rounds.
func (h *hoppdMix) companionUnits() int { return hoppdSweeps + hoppdRounds*hoppdCombos }

// quickRun is the in-process reference for one quick-scale request: the
// same catalog constructors and the same quick cache geometry the
// engine applies.
func quickRun(req service.RunRequest) ([]byte, error) {
	gen, ok := service.NewWorkload(req.Workload, true)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	sys, ok := service.NewSystem(req.System)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", req.System)
	}
	cfg := sim.Config{LocalMemoryFrac: *req.Frac, Seed: req.Seed, L2Bytes: 64 << 10, LLCBytes: 512 << 10}
	met, err := sim.RunWithContext(context.Background(), cfg, sys, gen)
	if err != nil {
		return nil, err
	}
	return json.Marshal(met)
}

func (h *hoppdMix) check() []error {
	errs := checkHoppd(h.fresh, h.cached, h.sweeps, quickRun)
	if err := h.readMetrics(1); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// checkHoppd verifies the service's answers: a spread of fresh runs and
// every sweep point against the in-process reference, and every cached
// answer byte for byte against the fresh answer it repeats.
func checkHoppd(fresh []freshRun, cached []cachedRun, sweeps []sweepRun, ref func(service.RunRequest) ([]byte, error)) []error {
	var errs []error
	if len(fresh) == 0 {
		return []error{fmt.Errorf("no fresh runs")}
	}
	step := (len(fresh) + hoppdCheckedFresh - 1) / hoppdCheckedFresh
	for i := 0; i < len(fresh); i += step {
		f := fresh[i]
		want, err := ref(f.req)
		if err != nil {
			errs = append(errs, fmt.Errorf("reference run %v: %w", f.req, err))
		} else if !bytes.Equal(want, f.metrics) {
			errs = append(errs, fmt.Errorf("run %s/%s/%g seed %d: service metrics differ from the in-process run", f.req.Workload, f.req.System, *f.req.Frac, f.req.Seed))
		}
	}
	for _, c := range cached {
		if !c.cached {
			errs = append(errs, fmt.Errorf("repeat of fresh run %d was not a cache hit", c.of))
		}
		if !bytes.Equal(c.metrics, fresh[c.of].metrics) {
			errs = append(errs, fmt.Errorf("cached answer for fresh run %d differs from the uncached bytes", c.of))
		}
	}
	for _, s := range sweeps {
		_, pts, err := s.req.Points()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if len(s.points) != len(pts) {
			errs = append(errs, fmt.Errorf("sweep streamed %d points, grid has %d", len(s.points), len(pts)))
			continue
		}
		for i, p := range s.points {
			if p.State != service.StateDone {
				errs = append(errs, fmt.Errorf("sweep point %d ended %s: %s", i, p.State, p.Error))
				continue
			}
			want, err := ref(pts[i])
			if err != nil {
				errs = append(errs, fmt.Errorf("reference run for sweep point %d: %w", i, err))
			} else if !bytes.Equal(want, p.Metrics) {
				errs = append(errs, fmt.Errorf("sweep point %d (%s/%s/%g) differs from the standalone run", i, p.Workload, p.System, p.Frac))
			}
		}
	}
	return errs
}

// endToEnd reports the service's host cost in CPU time, which repeats
// from run to run, and the cache-hit latency. The uncached and sweep
// latencies are wall-clock round trips of tens of milliseconds on a
// two-core host whose hypervisor steals time in bursts: they spread by
// 17-49% (quartile distance over median) between runs, wider than any
// bound that would still catch a regression, so they are per-layer
// figures of the traced run.
func (h *hoppdMix) endToEnd() map[string]metric {
	return map[string]metric{
		"run_cpu_ms":        {float64(h.freshCPU) / 1e6 / float64(len(h.fresh)), "ms"},
		"sweep_cpu_s":       {h.sweepCPU.Seconds() / float64(len(h.sweeps)), "s"},
		"cached_run_p50_us": {median(h.cachedUS), "us"},
	}
}

func (h *hoppdMix) perLayer() map[string]metric {
	m0, m1 := h.metricsAt[0], h.metricsAt[1]
	return map[string]metric{
		"run_p50_ms":           {median(h.runMS), "ms"},
		"run_tail_ms":          {quantile(h.runMS, tailQuantile), "ms"},
		"sweep_s":              {median(h.sweepS), "s"},
		"http.submit_ms":       {median(h.submitMS), "ms"},
		"http.status_us":       {median(h.statusUS), "us"},
		"engine.queue_wait_ms": {median(h.queueMS), "ms"},
		"engine.worker_ms":     {median(h.workerMS), "ms"},
		"cache.hits":           {float64(m1.CacheHits - m0.CacheHits), "count"},
		"sweep.streams_built":  {float64(m1.SweepStreamsBuilt - m0.SweepStreamsBuilt), "count"},
		"sweep.points_cached":  {float64(m1.SweepPointsCached - m0.SweepPointsCached), "count"},
	}
}

func (h *hoppdMix) ops() ops { return h.o }
