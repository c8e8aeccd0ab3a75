package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"hopp/internal/cachesim"
	"hopp/internal/hmtt"
	"hopp/internal/memsim"
	"hopp/internal/service"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// The hmtt-ingest input: the post-LLC trace of five applications run
// side by side, captured the way cmd/tracegen captures one (identity
// mapping through the default cache hierarchy, an HMTT capture ring
// drained before it can overflow). Each application's pages sit in their
// own 16M-page slice of the address space, and the applications take
// turns in bursts. The trace is cut to a multiple of 256 records, so
// the upload, ingestReplays copies of it back to back, keeps the 8-bit
// sequence numbers continuous: a session sees one unbroken stream.
var (
	ingestApps    = []string{"sequential", "omp-kmeans", "npb-mg", "graphx-pr", "quicksort"}
	ingestSystems = []string{"hopp", "fastswap", "spp"}
)

const (
	ingestMaxRecords    = 256 * 2560 // 655360 records
	ingestBurst         = 64         // accesses an application issues per turn
	ingestAppPageStride = 1 << 24
	// ingestReplays is how many times each session streams the trace:
	// 2.6M records, about 0.3 CPU-s of pump work, so opening and closing
	// a session is a small share of its cost.
	ingestReplays       = 4
	ingestWindowRecords = 4096
	// The client behaves as cmd/tracegen -hmtt-stream, the repository's
	// reference producer: 2048-record chunks (its -chunk-records
	// default), and a chunk refused with 429 is resent after the
	// Retry-After the daemon sends, or after tracegen's 200 ms minimum
	// backoff when there is none.
	ingestChunkRecords = 2048
	ingestRetryDefault = 200 * time.Millisecond
	// ingestSettle bounds the wait for a drained session's job to turn
	// terminal, polled every ingestSettlePoll.
	ingestSettle     = 2 * time.Second
	ingestSettlePoll = time.Millisecond
	// ingestCompanionRounds is the fixed work of a companion run: about
	// three CPU-seconds.
	ingestCompanionRounds = 3
)

// session is one ingest session's outcome.
type session struct {
	system    string
	windows   []service.IngestWindow
	status    service.RunStatus
	putAck    []time.Time // per chunk, when its PUT was acknowledged
	winSeen   []time.Time // per window, when the stream delivered it
	retries   int
	putMS     []float64
	streamErr error
}

// ingestMix is the hmtt-ingest phase.
type ingestMix struct {
	seed   int64
	upload []byte // what every session streams: ingestReplays copies of the trace
	eng    *service.Engine
	srv    *httptest.Server
	client *http.Client

	mu       sync.Mutex
	o        ops
	sessions []session
	records  uint64
	cpu      time.Duration
	// want is the benchmark's own decode of upload, computed once at
	// check time.
	want []service.IngestWindow
}

// captureTrace generates the mixed post-LLC trace for seed.
func captureTrace(seed int64) ([]byte, error) {
	gens := make([]workload.Generator, len(ingestApps))
	for i, name := range ingestApps {
		g, ok := service.NewWorkload(name, false)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		g.Reset(seed + int64(i))
		gens[i] = g
	}
	h := cachesim.DefaultHierarchy()
	capt := hmtt.NewCapture(4096)
	var buf bytes.Buffer
	written := 0
	now := vclock.Time(0)
	flush := func() error {
		recs := capt.Drain(0)
		written += len(recs)
		return hmtt.WriteTrace(&buf, recs)
	}
	for live := len(gens); live > 0 && written < ingestMaxRecords; {
		live = 0
		for i, g := range gens {
			if g == nil {
				continue
			}
			live++
			for k := 0; k < ingestBurst; k++ {
				a, ok := g.Next()
				if !ok {
					gens[i] = nil
					break
				}
				now = now.Add(a.Think)
				pa := memsim.PAddr(a.Addr) + memsim.PAddr(i*ingestAppPageStride)*memsim.PageSize
				if h.Access(pa) == cachesim.LevelMemory {
					now = now.Add(100)
					capt.Observe(now, pa.Page(), a.Write)
					if capt.Pending() >= 1024 {
						if err := flush(); err != nil {
							return nil, err
						}
					}
				} else {
					now = now.Add(15)
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if capt.Dropped() != 0 {
		return nil, fmt.Errorf("capture dropped %d records", capt.Dropped())
	}
	n := written / 256 * 256
	if n > ingestMaxRecords {
		n = ingestMaxRecords
	}
	if n == 0 {
		return nil, fmt.Errorf("trace too short: %d records", written)
	}
	return buf.Bytes()[:n*hmtt.RecordSize], nil
}

func (g *ingestMix) setup(seed int64) error {
	g.close()
	*g = ingestMix{seed: seed}
	up, err := captureTrace(seed)
	if err != nil {
		return err
	}
	g.upload = bytes.Repeat(up, ingestReplays)
	g.eng = service.NewEngine(service.Options{Workers: 1})
	g.srv = httptest.NewServer(service.NewHandler(g.eng))
	g.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	// Warm-up: one session over the first 32768 records of the trace.
	if _, err := g.stream(nil, spanRef{}, "hopp", up[:16*ingestChunkRecords*hmtt.RecordSize]); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	g.o, g.sessions, g.records = ops{}, nil, 0
	return nil
}

func (g *ingestMix) close() {
	if g.srv != nil {
		g.srv.Close()
		g.srv = nil
	}
	if g.eng != nil {
		g.eng.Close()
		g.eng = nil
	}
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
}

func (g *ingestMix) count(failed bool) {
	g.mu.Lock()
	g.o.attempted++
	if failed {
		g.o.failed++
	}
	g.mu.Unlock()
}

// call sends one request and reads the answer; it does not count it.
func (g *ingestMix) call(method, path string, body []byte) ([]byte, *http.Response, error) {
	req, err := http.NewRequest(method, g.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp, err
}

// retryAfter is the wait before resending a chunk refused with 429:
// the Retry-After seconds, or ingestRetryDefault without one.
func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return ingestRetryDefault
}

// op is call counted as one operation that succeeds on one of want.
func (g *ingestMix) op(method, path string, body []byte, want ...int) ([]byte, error) {
	out, resp, err := g.call(method, path, body)
	if err == nil {
		for _, w := range want {
			if resp.StatusCode == w {
				g.count(false)
				return out, nil
			}
		}
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	g.count(true)
	return nil, err
}

// cancel ends a session a failed upload leaves open, so its metrics
// stream ends too instead of waiting for the idle timeout.
func (g *ingestMix) cancel(base string) {
	_, _, _ = g.call("DELETE", base, nil) //hopplint:errok best effort: the upload has already failed and its error is what the caller reports
}

// stream opens a session for system, uploads data as ordered chunks
// while a second connection follows the metrics stream, closes the
// session and waits for it to finish.
func (g *ingestMix) stream(tr *tracer, parent spanRef, system string, data []byte) (session, error) {
	s := session{system: system}
	body, err := json.Marshal(service.IngestRequest{Workload: "mix", System: system, Seed: g.seed, WindowRecords: ingestWindowRecords})
	if err != nil {
		return s, err
	}
	sp := tr.begin("http.POST /v1/ingests", parent)
	out, err := g.op("POST", "/v1/ingests", body, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	var st service.RunStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return s, fmt.Errorf("open answer: %w", err)
	}
	base := "/v1/ingests/" + st.ID

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fsp := tr.begin("http.GET /v1/ingests/{id}/metrics?follow", parent)
		defer tr.end(fsp)
		resp, err := g.client.Get(g.srv.URL + base + "/metrics?follow=true")
		if err != nil {
			g.count(true)
			s.streamErr = err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var w service.IngestWindow
			if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
				s.streamErr = err
				break
			}
			s.windows = append(s.windows, w)
			s.winSeen = append(s.winSeen, time.Now())
		}
		if s.streamErr == nil {
			s.streamErr = sc.Err()
		}
		g.count(resp.StatusCode != http.StatusOK || s.streamErr != nil)
	}()

	chunkBytes := ingestChunkRecords * hmtt.RecordSize
	for n := 0; n*chunkBytes < len(data); n++ {
		chunk := data[n*chunkBytes : min((n+1)*chunkBytes, len(data))]
		path := base + "/chunks/" + strconv.Itoa(n)
		csp := tr.begin("http.PUT /v1/ingests/{id}/chunks/{n}", parent)
		for {
			t0 := time.Now()
			out, resp, err := g.call("PUT", path, chunk)
			if err == nil && resp.StatusCode == http.StatusTooManyRequests {
				// The staging ring is full: the pump is behind. Resend
				// the same chunk when the daemon asks.
				s.retries++
				time.Sleep(retryAfter(resp))
				continue
			}
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("PUT chunk %d: HTTP %d: %s", n, resp.StatusCode, bytes.TrimSpace(out))
			}
			g.count(err != nil)
			if err != nil {
				tr.end(csp)
				g.cancel(base)
				wg.Wait()
				return s, err
			}
			s.putMS = append(s.putMS, float64(time.Since(t0))/1e6)
			s.putAck = append(s.putAck, time.Now())
			break
		}
		tr.end(csp)
	}
	sp = tr.begin("http.POST /v1/ingests/{id}/close", parent)
	_, err = g.op("POST", base+"/close", nil, http.StatusOK, http.StatusAccepted)
	tr.end(sp)
	if err != nil {
		g.cancel(base)
	}
	wg.Wait()
	if err != nil {
		return s, err
	}
	if s.streamErr != nil {
		return s, fmt.Errorf("metrics stream: %w", s.streamErr)
	}
	// The metrics stream ends when the session seals its last window,
	// which the engine does before it marks the job terminal, so the
	// status can still read running for a moment.
	for wait := time.Duration(0); ; wait += ingestSettlePoll {
		out, err = g.op("GET", base, nil, http.StatusOK)
		if err != nil {
			return s, err
		}
		s.status = service.RunStatus{}
		if err := json.Unmarshal(out, &s.status); err != nil {
			return s, fmt.Errorf("status answer: %w", err)
		}
		if s.status.State != service.StateRunning || wait >= ingestSettle {
			return s, nil
		}
		time.Sleep(ingestSettlePoll)
	}
}

// unit streams the upload into one session; a round is one session per
// system, in turn.
func (g *ingestMix) unit(tr *tracer) (bool, error) {
	system := ingestSystems[len(g.sessions)%len(ingestSystems)]
	sp := tr.begin("ingest.session/"+system, spanRef{})
	c0 := cpuNow()
	s, err := g.stream(tr, sp, system, g.upload)
	g.cpu += cpuNow() - c0
	tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("%s session: %w", system, err)
	}
	for _, w := range s.windows {
		g.records += w.Records
	}
	g.sessions = append(g.sessions, s)
	return len(g.sessions)%len(ingestSystems) == 0, nil
}

func (g *ingestMix) companionUnits() int { return ingestCompanionRounds * len(ingestSystems) }

func (g *ingestMix) check() []error {
	if g.want == nil {
		g.want = expectedWindows(g.upload, ingestWindowRecords)
	}
	var errs []error
	if len(g.sessions) == 0 {
		return []error{fmt.Errorf("no session ran")}
	}
	for i, s := range g.sessions {
		for _, err := range checkSession(s, g.want, uint64(len(g.upload)/hmtt.RecordSize), ingestWindowRecords) {
			errs = append(errs, fmt.Errorf("session %d (%s): %w", i, s.system, err))
		}
	}
	return errs
}

// checkSession compares a session's windows and final status with the
// benchmark's own decode of the uploaded bytes.
func checkSession(s session, want []service.IngestWindow, records uint64, window int) []error {
	var errs []error
	if s.status.State != service.StateDone {
		errs = append(errs, fmt.Errorf("session ended %s: %s", s.status.State, s.status.Error))
	}
	wantN := int((records + uint64(window) - 1) / uint64(window))
	if len(s.windows) != wantN {
		return append(errs, fmt.Errorf("%d windows, want ceil(%d/%d) = %d", len(s.windows), records, window, wantN))
	}
	var hits, pref uint64
	for i, w := range s.windows {
		e := want[i]
		if w.Index != i || w.Records != e.Records || w.Reads != e.Reads || w.Writes != e.Writes || w.LossRecords != e.LossRecords {
			errs = append(errs, fmt.Errorf("window %d: records/reads/writes/loss %d/%d/%d/%d, decode gives %d/%d/%d/%d",
				i, w.Records, w.Reads, w.Writes, w.LossRecords, e.Records, e.Reads, e.Writes, e.LossRecords))
		}
		if w.StartNS != e.StartNS || w.EndNS != e.EndNS {
			errs = append(errs, fmt.Errorf("window %d: clock [%d, %d], decode gives [%d, %d]", i, w.StartNS, w.EndNS, e.StartNS, e.EndNS))
		}
		if w.HotPages != e.HotPages {
			errs = append(errs, fmt.Errorf("window %d: %d hot pages, the reference HPD finds %d", i, w.HotPages, e.HotPages))
		}
		// A prefetch issued in one window may hit in the next, so the
		// bound holds for the running totals, not per window.
		hits += w.PrefetchHits
		pref += w.Prefetches
		if hits > pref {
			errs = append(errs, fmt.Errorf("window %d: prefetch hits so far %d > prefetches so far %d", i, hits, pref))
		}
	}
	if in := s.status.Ingest; in == nil {
		errs = append(errs, fmt.Errorf("status has no ingest block"))
	} else if in.Records != records || in.PrefetchHits != hits || in.Prefetches != pref {
		errs = append(errs, fmt.Errorf("status totals records/prefetches/hits %d/%d/%d, windows sum to %d/%d/%d",
			in.Records, in.Prefetches, in.PrefetchHits, records, pref, hits))
	}
	return errs
}

// expectedWindows decodes the uploaded bytes independently of package
// hmtt and runs the reads through the reference HPD, giving the windows
// a correct session must produce.
func expectedWindows(data []byte, windowRecords int) []service.IngestWindow {
	var out []service.IngestWindow
	ref := newRefHPD()
	cur := service.IngestWindow{}
	var clock uint64
	var prev byte
	for off := 0; off+6 <= len(data); off += 6 {
		r := data[off : off+6]
		if off > 0 {
			cur.LossRecords += uint64(r[0] - prev - 1)
		}
		prev = r[0]
		clock += uint64(r[1])
		word := uint32(r[2]) | uint32(r[3])<<8 | uint32(r[4])<<16 | uint32(r[5])<<24
		cur.Records++
		if word&(1<<29) != 0 {
			cur.Writes++
		} else {
			cur.Reads++
			if ref.access(uint64(word & (1<<29 - 1))) {
				cur.HotPages++
			}
		}
		if int(cur.Records) == windowRecords || off+12 > len(data) {
			cur.EndNS = int64(clock) * 100
			out = append(out, cur)
			cur = service.IngestWindow{Index: cur.Index + 1, StartNS: cur.EndNS}
		}
	}
	return out
}

// refHPD is the §III-B hot page detection table written from the paper:
// 4 sets chosen by the low two PPN bits, 16 ways each, true LRU with
// empty ways filled first, a page declared hot on its 8th access, and a
// send bit that suppresses it until its entry is evicted.
type refHPD struct {
	sets [4][]refEntry // MRU first
}

type refEntry struct {
	ppn   uint64
	count int
	sent  bool
}

func newRefHPD() *refHPD { return &refHPD{} }

func (h *refHPD) access(ppn uint64) bool {
	set := &h.sets[ppn&3]
	for i, e := range *set {
		if e.ppn != ppn {
			continue
		}
		copy((*set)[1:i+1], (*set)[:i])
		hot := false
		if !e.sent {
			e.count++
			if e.count >= 8 {
				e.sent, hot = true, true
			}
		}
		(*set)[0] = e
		return hot
	}
	if len(*set) < 16 {
		*set = append(*set, refEntry{})
	}
	copy((*set)[1:], (*set)[:len(*set)-1])
	(*set)[0] = refEntry{ppn: ppn, count: 1}
	return false
}

func (g *ingestMix) endToEnd() map[string]metric {
	return map[string]metric{
		"ingest_mrec_per_cpu_s": {float64(g.records) / 1e6 / g.cpu.Seconds(), "Mrec/CPU-s"},
	}
}

func (g *ingestMix) perLayer() map[string]metric {
	var put, lag []float64
	retries := 0
	hits := map[string][2]uint64{}
	for _, s := range g.sessions {
		put = append(put, s.putMS...)
		retries += s.retries
		for i, w := range s.windows {
			last := min(uint64(i+1)*ingestWindowRecords, uint64(len(g.upload)/hmtt.RecordSize)) - 1
			lag = append(lag, float64(s.winSeen[i].Sub(s.putAck[last/ingestChunkRecords]))/1e6)
			h := hits[s.system]
			hits[s.system] = [2]uint64{h[0] + w.PrefetchHits, h[1] + w.Prefetches}
		}
	}
	out := map[string]metric{
		"ingest.put_ms":        {median(put), "ms"},
		"ingest.window_lag_ms": {median(lag), "ms"},
		"ingest.retries_429":   {float64(retries), "count"},
	}
	for _, system := range ingestSystems {
		h := hits[system]
		out["ingest.prefetch_hit_ratio."+system] = metric{ratio(h[0], h[1]), "ratio"}
	}
	return out
}

func (g *ingestMix) ops() ops { return g.o }
