package main

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/hmtt"
	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// Every check is fed a correct output, which must pass, and then
// corrupted copies, each of which must fail.

func smallPass(t *testing.T) (pass, []uint64) {
	t.Helper()
	gen := workload.NewRandom(256, 4096)
	fresh := workload.NewRandom(256, 4096)
	fresh.Reset(3)
	var n uint64
	for {
		if _, ok := fresh.Next(); !ok {
			break
		}
		n++
	}
	local, err := sim.RunLocal(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := pass{local: []sim.Metrics{local}}
	for _, system := range mixSystems {
		for _, frac := range mixFracs {
			met, err := sim.RunWorkload(newMixSystem(system), gen, frac, 3)
			if err != nil {
				t.Fatal(err)
			}
			p.runs = append(p.runs, mixRun{app: "random", system: system, frac: frac, met: met})
		}
	}
	return p, []uint64{n}
}

func clonePass(p pass) pass {
	return pass{local: append([]sim.Metrics(nil), p.local...), runs: append([]mixRun(nil), p.runs...)}
}

func TestSimChecksRejectCorruptedMetrics(t *testing.T) {
	p, drained := smallPass(t)
	if errs := checkPasses([]pass{p, clonePass(p)}, drained); len(errs) != 0 {
		t.Fatalf("correct passes rejected: %v", errs)
	}
	corruptions := map[string]func(*sim.Metrics){
		"accesses":        func(m *sim.Metrics) { m.Accesses++ },
		"cache hits":      func(m *sim.Metrics) { m.CacheHits++ },
		"remote reads":    func(m *sim.Metrics) { m.RemoteReads++ },
		"prefetch hits":   func(m *sim.Metrics) { m.SwapCacheHits = m.PrefetchIssued + 1 },
		"completion time": func(m *sim.Metrics) { m.CompletionTime = p.local[0].CompletionTime - 1 },
	}
	for name, corrupt := range corruptions {
		bad := clonePass(p)
		corrupt(&bad.runs[2].met)
		if errs := checkPasses([]pass{bad}, drained); len(errs) == 0 {
			t.Errorf("%s: corrupted run accepted", name)
		}
	}
	// A second pass that differs from the first in any field.
	second := clonePass(p)
	second.runs[4].met.HotPagesEmitted++
	if errs := checkPasses([]pass{p, second}, drained); len(errs) == 0 {
		t.Error("a pass differing from the first was accepted")
	}
	second = clonePass(p)
	second.local[0].PerApp = map[string]vclock.Duration{"x": 1}
	if errs := checkPasses([]pass{p, second}, drained); len(errs) == 0 {
		t.Error("a pass with different local baselines was accepted")
	}
}

func TestExperimentCheckRejectsBadTables(t *testing.T) {
	good := []experiments.Table{{
		Title:  "Fig. 10: prefetch accuracy",
		Header: []string{"Workload", "Fastswap", "HoPP"},
		Rows:   [][]string{{"Quicksort", "1.000", "0.994"}, {"Ladder", "-", "0.5"}},
	}, {
		Title:  "Fig. 21: scatter",
		Header: []string{"Workload", "Accuracy", "Coverage", "NormPerf"},
		Rows:   [][]string{{"HPL", "0.9", "0.8", "1.7"}},
	}}
	if errs := checkExperiment("x", good, nil); len(errs) != 0 {
		t.Fatalf("correct tables rejected: %v", errs)
	}
	bad := func(f func([]experiments.Table) []experiments.Table) []experiments.Table {
		c := make([]experiments.Table, len(good))
		for i, tb := range good {
			c[i] = tb
			c[i].Rows = nil
			for _, r := range tb.Rows {
				c[i].Rows = append(c[i].Rows, append([]string(nil), r...))
			}
		}
		return f(c)
	}
	cases := map[string][]experiments.Table{
		"no tables":          nil,
		"empty table":        bad(func(c []experiments.Table) []experiments.Table { c[0].Rows = nil; return c }),
		"accuracy above one": bad(func(c []experiments.Table) []experiments.Table { c[0].Rows[0][2] = "1.2"; return c }),
		"negative coverage":  bad(func(c []experiments.Table) []experiments.Table { c[1].Rows[0][2] = "-0.1"; return c }),
	}
	for name, tables := range cases {
		if errs := checkExperiment("x", tables, nil); len(errs) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
	if errs := checkExperiment("x", good, errTest); len(errs) == 0 {
		t.Error("a failed experiment was accepted")
	}
}

var errTest = errors.New("experiment failed")

func TestHoppdCheckRejectsCorruptedAnswers(t *testing.T) {
	frac := 0.5
	ref := func(r service.RunRequest) ([]byte, error) {
		return []byte(`{"workload":"` + r.Workload + `","seed":` + string(rune('0'+r.Seed%10)) + `}`), nil
	}
	req := func(w string, seed int64) service.RunRequest {
		return service.RunRequest{Workload: w, System: "hopp", Frac: &frac, Seed: seed, Quick: true}
	}
	answer := func(r service.RunRequest) []byte { b, _ := ref(r); return b }
	var fresh []freshRun
	for i := int64(0); i < 3; i++ {
		r := req("sequential", i)
		fresh = append(fresh, freshRun{req: r, metrics: answer(r)})
	}
	cached := []cachedRun{{of: 1, cached: true, metrics: answer(fresh[1].req)}}
	sreq := service.SweepRequest{Workloads: []string{"sequential"}, Systems: []string{"hopp", "spp"}, Seeds: []int64{7}, Quick: true}
	_, pts, err := sreq.Points()
	if err != nil {
		t.Fatal(err)
	}
	var points []service.SweepPoint
	for i, p := range pts {
		points = append(points, service.SweepPoint{Index: i, Workload: p.Workload, System: p.System, Frac: *p.Frac, Seed: p.Seed, State: service.StateDone, Metrics: answer(p)})
	}
	sweeps := []sweepRun{{req: sreq, points: points}}
	if errs := checkHoppd(fresh, cached, sweeps, ref); len(errs) != 0 {
		t.Fatalf("correct answers rejected: %v", errs)
	}

	clone := func() ([]freshRun, []cachedRun, []sweepRun) {
		f := append([]freshRun(nil), fresh...)
		c := append([]cachedRun(nil), cached...)
		s := []sweepRun{{req: sreq, points: append([]service.SweepPoint(nil), points...)}}
		return f, c, s
	}
	cases := map[string]func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun){
		"fresh metrics": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			f[0].metrics = []byte(`{}`)
			return f, c, s
		},
		"cached bytes": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			c[0].metrics = answer(fresh[0].req)
			return f, c, s
		},
		"not a cache hit": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			c[0].cached = false
			return f, c, s
		},
		"sweep point metrics": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			s[0].points[1].Metrics = []byte(`{}`)
			return f, c, s
		},
		"sweep point failed": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			s[0].points[0].State = service.StateFailed
			return f, c, s
		},
		"sweep point missing": func(f []freshRun, c []cachedRun, s []sweepRun) ([]freshRun, []cachedRun, []sweepRun) {
			s[0].points = s[0].points[:1]
			return f, c, s
		},
	}
	for name, corrupt := range cases {
		f, c, s := corrupt(clone())
		if errs := checkHoppd(f, c, s, ref); len(errs) == 0 {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
}

// syntheticUpload encodes records over a few hot pages with sequence
// gaps every 97 records.
func syntheticUpload(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	seq := uint8(0)
	for i := 0; i < n; i++ {
		if i%97 == 96 {
			seq += 2 // two records lost in capture
		}
		rec := hmtt.Record{Seq: seq, TimestampDelta: uint8(rng.Intn(8)), Write: rng.Intn(5) == 0, Page: memsim.PPN(rng.Intn(90))}
		seq++
		var b [hmtt.RecordSize]byte
		rec.Encode(b[:])
		buf.Write(b[:])
	}
	return buf.Bytes()
}

func TestReferenceDecodeMatchesPackageHMTT(t *testing.T) {
	up := syntheticUpload(5000)
	want := expectedWindows(up, 1000)
	var d hmtt.Decoder
	var loss, reads uint64
	d.Feed(up, func(r hmtt.Record, lost int) {
		loss += uint64(lost)
		if !r.Write {
			reads++
		}
	})
	var gotLoss, gotReads uint64
	for _, w := range want {
		gotLoss += w.LossRecords
		gotReads += w.Reads
	}
	if len(want) != 5 || gotLoss != loss || gotReads != reads || loss == 0 {
		t.Fatalf("%d windows, loss %d reads %d; decoder gives loss %d reads %d", len(want), gotLoss, gotReads, loss, reads)
	}
}

func TestReferenceHPDMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref, table := newRefHPD(), hpd.MustNew(hpd.Default())
	hot := 0
	for i := 0; i < 200000; i++ {
		p := uint64(rng.Intn(300))
		if rng.Intn(3) == 0 {
			p = uint64(rng.Intn(40)) // a hotter subset
		}
		a, b := ref.access(p), table.Access(memsim.PPN(p))
		if a != b {
			t.Fatalf("access %d (page %d): reference says hot=%v, hpd.Table says %v", i, p, a, b)
		}
		if a {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("no hot pages: the stream does not exercise the threshold")
	}
}

func TestIngestCheckRejectsCorruptedWindows(t *testing.T) {
	const window = 1000
	up := syntheticUpload(4500)
	want := expectedWindows(up, window)
	records := uint64(len(up) / hmtt.RecordSize)
	good := session{system: "hopp", windows: append([]service.IngestWindow(nil), want...)}
	for i := range good.windows {
		good.windows[i].Prefetches, good.windows[i].PrefetchHits = 10, 5
	}
	// Hits may exceed prefetches inside one window, as long as the
	// running totals do not.
	good.windows[1].PrefetchHits = 12
	var pref, hits uint64
	for _, w := range good.windows {
		pref, hits = pref+w.Prefetches, hits+w.PrefetchHits
	}
	good.status = service.RunStatus{State: service.StateDone, Ingest: &service.IngestStatus{Records: records, Prefetches: pref, PrefetchHits: hits}}
	if errs := checkSession(good, want, records, window); len(errs) != 0 {
		t.Fatalf("correct session rejected: %v", errs)
	}
	cases := map[string]func(s *session){
		"window missing": func(s *session) { s.windows = s.windows[:len(s.windows)-1] },
		"records":        func(s *session) { s.windows[0].Records-- },
		"reads":          func(s *session) { s.windows[1].Reads++ },
		"writes":         func(s *session) { s.windows[1].Writes++ },
		"loss":           func(s *session) { s.windows[2].LossRecords = 0 },
		"hot pages":      func(s *session) { s.windows[3].HotPages++ },
		"clock":          func(s *session) { s.windows[3].EndNS++ },
		"hits over prefetches": func(s *session) {
			s.windows[0].PrefetchHits = 11
		},
		"status totals": func(s *session) {
			s.status.Ingest = &service.IngestStatus{Records: records - 1, Prefetches: pref, PrefetchHits: hits}
		},
		"state": func(s *session) { s.status.State = service.StateFailed },
	}
	for name, corrupt := range cases {
		bad := good
		bad.windows = append([]service.IngestWindow(nil), good.windows...)
		st := *good.status.Ingest
		bad.status.Ingest = &st
		corrupt(&bad)
		if errs := checkSession(bad, want, records, window); len(errs) == 0 {
			t.Errorf("%s: corrupted session accepted", name)
		}
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	gen := workload.NewSequential(1024, 3)
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		gen.Reset(1)
		for {
			if _, ok := gen.Next(); !ok {
				break
			}
		}
	}
	pprof.StopCPUProfile()
	byPkg, total, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || byPkg["hopp/internal/workload"] == 0 {
		t.Fatalf("no samples attributed to the workload package: %v of %d", byPkg, total)
	}
	if _, _, err := leafSamples([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"hopp/internal/cachesim.(*Cache).Access": "hopp/internal/cachesim",
		"runtime.mallocgc":                       "runtime",
		"net/http.(*conn).serve":                 "net/http",
		"main.main":                              "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := pyQuartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", q)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median %v", m)
	}
}

// The upload is the captured trace several times back to back; its
// sequence numbers must run on across each join, or every replay would
// read as capture loss.
func TestReplayedTraceIsOneStream(t *testing.T) {
	trace, err := captureTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	var d hmtt.Decoder
	n := 0
	d.Feed(bytes.Repeat(trace, ingestReplays), func(hmtt.Record, int) { n++ })
	if want := ingestReplays * len(trace) / hmtt.RecordSize; n != want || d.Lost() != 0 {
		t.Fatalf("decoded %d records with %d lost, want %d with none lost", n, d.Lost(), want)
	}
}

// failingPhase is a phase whose third unit fails.
type failingPhase struct{ units int }

func (f *failingPhase) setup(int64) error { return nil }
func (f *failingPhase) unit(*tracer) (bool, error) {
	if f.units++; f.units == 3 {
		return false, errors.New("planted failure")
	}
	return false, nil
}
func (f *failingPhase) companionUnits() int         { return 1 }
func (f *failingPhase) check() []error              { return nil }
func (f *failingPhase) endToEnd() map[string]metric { return nil }
func (f *failingPhase) perLayer() map[string]metric { return nil }
func (f *failingPhase) ops() ops                    { return ops{} }
func (f *failingPhase) close()                      {}

// A failed unit ends the timed phase at once with its error, so the run
// goes on to its checks and result line instead of running out the clock.
func TestFailedUnitEndsTimedPhase(t *testing.T) {
	phases := map[string]phase{wlSim: &failingPhase{}, wlHoppd: &failingPhase{}, wlIngest: &failingPhase{}}
	t0 := time.Now()
	err := schedule(nil, phases, wlSim, time.Minute)
	if err == nil || time.Since(t0) > 10*time.Second {
		t.Fatalf("schedule = %v after %v, want the planted failure at once", err, time.Since(t0))
	}
	if got := phases[wlSim].(*failingPhase).units; got != 3 {
		t.Fatalf("main phase ran %d units, want 3 (stopped at the failure)", got)
	}
}

func TestFiniteDropsNaNAndMarksIncorrect(t *testing.T) {
	res := result{Correct: true}
	ms := finite(map[string]metric{"a": {1, "s"}, "b": {math.NaN(), "s"}, "c": {math.Inf(1), "s"}}, &res)
	if len(ms) != 1 || res.Correct {
		t.Fatalf("finite kept %v, correct=%v; want only a, correct=false", ms, res.Correct)
	}
}
