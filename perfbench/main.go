// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One process runs three workloads against the simulator and
// the hoppd service:
//
//   - sim-mix: a Table IV application mix under HoPP, Fastswap and SPP at
//     50% and 25% local memory, plus every table and figure at quick scale;
//   - hoppd-mix: a closed loop of two HTTP clients submitting runs and
//     sweeps to service.NewHandler on loopback;
//   - hmtt-ingest: a captured HMTT trace streamed as chunk uploads into
//     live ingest sessions.
//
// Every run reports every end-to-end metric. The workload named by
// --workload fills the timed phase; the other two run a fixed companion
// amount spread across it, so their metrics are present and comparable
// in every output. Host time is process CPU time (getrusage user+sys),
// since on a shared machine the wall clock mostly measures other
// tenants; client-visible latencies stay wall-clock.
//
// Usage:
//
//	bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload hmtt-ingest --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --workload hoppd-mix --seconds 30 --repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 the metrics are
// the per-layer ones and the spans go to --spans. With --repeat N the
// command instead runs the workload N times as child processes, seeds
// seed..seed+N-1, and prints each metric's median, quartiles and spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// The workloads, in the order the scheduler considers them.
const (
	wlSim    = "sim-mix"
	wlHoppd  = "hoppd-mix"
	wlIngest = "hmtt-ingest"
)

var workloads = []string{wlSim, wlHoppd, wlIngest}

// setupRepeats is how many times a run sets every phase up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts the operations a phase attempted and how many failed.
type ops struct{ attempted, failed int64 }

// phase is one workload's set-up, timed work and output checks. The
// timed work comes in units of a few hundred milliseconds, grouped in
// rounds; runs always end on a round boundary, so every run attempts
// whole rounds of the same operations.
type phase interface {
	// setup builds inputs and servers and runs a warm-up; calling it
	// again tears the previous set-up down first.
	setup(seed int64) error
	// unit runs the next unit of work and reports whether it completed a
	// round.
	unit(tr *tracer) (roundDone bool, err error)
	// companionUnits is the fixed work of a companion run, in whole
	// rounds; the named workload's run does at least as much.
	companionUnits() int
	// check verifies the outputs the timed work produced.
	check() []error
	// endToEnd and perLayer report the phase's metrics; close releases
	// servers and engines.
	endToEnd() map[string]metric
	perLayer() map[string]metric
	ops() ops
	close()
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		wl      = flag.String("workload", wlSim, "workload: sim-mix, hoppd-mix or hmtt-ingest")
		seed    = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: spans, CPU profile and layer replay; prints per-layer metrics")
		repeat  = flag.Int("repeat", 0, "steadiness mode: run the workload this many times and print each metric's spread")
		spans   = flag.String("spans", ".bench_build/perfbench-spans.jsonl", "span file written at exit of a traced run")
	)
	flag.Parse()
	if !validWorkload(*wl) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sim-mix, hoppd-mix or hmtt-ingest)\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *repeat > 0 {
		return steadiness(*wl, *seed, *seconds, *trace == 1, *repeat)
	}
	res, err := bench(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func validWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// bench runs one measured (or traced) run of the named workload.
func bench(wl string, seed int64, length time.Duration, traced bool, spanPath string) (result, error) {
	phases := map[string]phase{
		wlSim:    &simMix{},
		wlHoppd:  &hoppdMix{},
		wlIngest: &ingestMix{},
	}
	defer func() {
		for _, p := range phases {
			p.close()
		}
	}()

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuNow()
		for _, name := range workloads {
			if err := phases[name].setup(seed); err != nil {
				return result{}, fmt.Errorf("%s setup: %w", name, err)
			}
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}

	var tr *tracer
	var prof *profiler
	if traced {
		tr = newTracer()
		var err error
		if prof, err = startProfile(); err != nil {
			return result{}, err
		}
	}
	gc0 := readGCShare()
	// A unit that fails ends the timed phase early; the checks still run
	// and the result line still reports what was attempted and failed.
	unitErr := schedule(tr, phases, wl, length)
	gc1 := readGCShare()
	var profile []byte
	if traced {
		profile = prof.stop()
	}

	res := result{Correct: unitErr == nil, Metrics: map[string]metric{}}
	if unitErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: timed phase stopped:", unitErr)
	}
	for _, name := range workloads {
		p := phases[name]
		for _, e := range p.check() {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s check failed: %v\n", name, e)
		}
		o := p.ops()
		res.Attempted += o.attempted
		res.Failed += o.failed
	}

	e2e := map[string]metric{"setup_s": {median(setups), "s"}}
	for _, name := range workloads {
		for k, v := range phases[name].endToEnd() {
			e2e[k] = v
		}
	}
	if !traced {
		res.Metrics = finite(e2e, &res)
		return res, nil
	}

	// The traced run's own end-to-end figures, printed before the
	// result line, are what the steadiness mode compares against untraced
	// runs to give the tracing overhead.
	if line, err := json.Marshal(map[string]any{"traced_end_to_end": e2e}); err == nil {
		fmt.Println(string(line))
	}
	for _, name := range workloads {
		for k, v := range phases[name].perLayer() {
			res.Metrics[k] = v
		}
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		res.Metrics[k] = v
	}
	res.Metrics["runtime.gc_cpu_share"] = metric{gcShareBetween(gc0, gc1), "ratio"}
	for k, v := range replayLayers(tr, seed, phases[wlIngest].(*ingestMix).upload) {
		res.Metrics[k] = v
	}
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}
	res.Metrics = finite(res.Metrics, &res)
	return res, nil
}

// finite drops the metrics that are not finite numbers, which JSON
// cannot carry: a phase stopped before its first unit has nothing to
// divide by. A correct run has none, so dropping one marks res incorrect.
func finite(ms map[string]metric, res *result) map[string]metric {
	var bad []string
	//hopplint:sorted bad is sorted immediately below
	for k, v := range ms {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	for _, k := range bad {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v, left out\n", k, ms[k].Value)
		delete(ms, k)
		res.Correct = false
	}
	return ms
}

// schedule runs the timed phase. The named workload's units fill the
// run; each companion's units are due at evenly spaced moments across
// it, so every metric samples the whole run rather than one stretch of
// a host whose speed drifts. Between units of different phases the heap
// is collected, so one phase's garbage is not marked on another's CPU
// time. The first unit that fails ends the timed phase, and its error
// is returned.
func schedule(tr *tracer, phases map[string]phase, wl string, length time.Duration) error {
	start := time.Now()
	deadline := start.Add(length)
	main := phases[wl]
	total := map[string]int{}
	done := map[string]int{}
	for _, name := range workloads {
		total[name] = phases[name].companionUnits()
	}
	wall := map[string]time.Duration{}
	cpu := map[string]time.Duration{}
	last := ""
	mainRoundOpen := false
	for {
		now := time.Now()
		pick := ""
		for _, name := range workloads {
			due := start.Add(time.Duration((float64(done[name]) + 0.5) / float64(total[name]) * float64(length)))
			if name != wl && done[name] < total[name] && !now.Before(due) {
				pick = name
				break
			}
		}
		if pick == "" && (now.Before(deadline) || mainRoundOpen || done[wl] < total[wl]) {
			pick = wl
		}
		for _, name := range workloads {
			if pick == "" && done[name] < total[name] {
				pick = name
			}
		}
		if pick == "" {
			break
		}
		if pick != last {
			runtime.GC()
			last = pick
		}
		t0, c0 := time.Now(), cpuNow()
		roundDone, err := phases[pick].unit(tr)
		wall[pick] += time.Since(t0)
		cpu[pick] += cpuNow() - c0
		if err != nil {
			return fmt.Errorf("%s: %w", pick, err)
		}
		done[pick]++
		if phases[pick] == main {
			mainRoundOpen = !roundDone
		}
	}
	for _, name := range workloads {
		role := "companion"
		if name == wl {
			role = "main"
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d units, %.2f s wall, %.2f CPU-s\n", role, name, done[name], wall[name].Seconds(), cpu[name].Seconds())
	}
	return nil
}
