package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hopp/internal/experiments"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/workload"
)

// The sim-mix inputs: six Table IV applications at the standard
// evaluation scale (the service catalog's constructors), each under three
// systems at two local-memory fractions, plus one all-local baseline.
// The 25% runs weigh reclaim and fault paths beside the cache-hit path.
var (
	mixApps    = []string{"sequential", "omp-kmeans", "quicksort", "graphx-pr", "npb-mg", "random"}
	mixSystems = []string{"hopp", "fastswap", "spp"}
	mixFracs   = []float64{0.5, 0.25}
)

// mixRun is one simulation of a pass: its identity and its outcome.
type mixRun struct {
	app, system string
	frac        float64
	met         sim.Metrics
	cpu         time.Duration
}

// pass is one whole round of the mix: per app, the local baseline and
// every system × fraction run.
type pass struct {
	local []sim.Metrics
	runs  []mixRun
	alloc uint64
}

// simMix is the sim-mix phase.
type simMix struct {
	seed int64
	gens []workload.Generator
	// drained is each app's access count from draining a fresh generator
	// with the run's seed — the independent count the Accesses check
	// compares against (workload.Base.TotalAccesses is seed-0 only).
	drained []uint64

	passes []pass
	cur    pass // the pass in progress
	// layer holds the first pass's per-layer counts.
	layer layerCounts

	expIDs    []string
	expCPU    []float64
	expTables [][]experiments.Table
	expErrs   []error

	o ops
}

// layerCounts are the simulated per-layer counts of one pass.
type layerCounts struct {
	accesses, llcMisses       uint64
	hpdReads, hpdHot          uint64
	rptWeighted, rptWeight    float64
	coreIssued, coreHits      uint64
	demandIssued, demandHits  uint64
	majorFaults               uint64
	faultStall, prefetchStall float64
	queueDelay, transfers     float64
}

func newMixSystem(name string) sim.System {
	sys, ok := service.NewSystem(name)
	if !ok {
		panic("perfbench: unknown system " + name)
	}
	return sys
}

func (s *simMix) setup(seed int64) error {
	*s = simMix{seed: seed}
	for _, name := range mixApps {
		gen, ok := service.NewWorkload(name, false)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		s.gens = append(s.gens, gen)
		fresh, _ := service.NewWorkload(name, false)
		fresh.Reset(seed)
		var n uint64
		for {
			if _, ok := fresh.Next(); !ok {
				break
			}
			n++
		}
		s.drained = append(s.drained, n)
	}
	// Warm-up: one quick simulation, so the first timed run does not pay
	// for heap growth.
	gen, _ := service.NewWorkload("npb-mg", true)
	_, err := sim.RunWorkload(sim.HoPP(), gen, 0.5, seed)
	return err
}

// runOne simulates one point with its own machine.
func (s *simMix) runOne(tr *tracer, parent spanRef, gen workload.Generator, system string, frac float64) (sim.Metrics, time.Duration, *sim.Machine, error) {
	sp := tr.begin("sim.Run/"+gen.Name()+"/"+system+"/"+strconv.FormatFloat(frac, 'g', -1, 64), parent)
	defer tr.end(sp)
	c0 := cpuNow()
	s.o.attempted++
	m, err := sim.New(sim.Config{System: newMixSystem(system), LocalMemoryFrac: frac, Seed: s.seed}, gen)
	if err != nil {
		s.o.failed++
		return sim.Metrics{}, 0, nil, err
	}
	met, err := m.Run()
	if err != nil {
		s.o.failed++
		return met, 0, nil, err
	}
	return met, cpuNow() - c0, m, nil
}

// appUnit runs one application of the mix: its all-local baseline and
// every system × fraction point. A pass is one appUnit per application.
func (s *simMix) appUnit(tr *tracer) error {
	i := len(s.cur.local)
	gen := s.gens[i]
	sp := tr.begin("sim-mix.app/"+mixApps[i], spanRef{})
	defer tr.end(sp)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	first := len(s.passes) == 0
	local, _, m, err := s.runOne(tr, sp, gen, "noprefetch", 0)
	if err != nil {
		return fmt.Errorf("%s local: %w", mixApps[i], err)
	}
	s.cur.local = append(s.cur.local, local)
	if first {
		s.layer.add(local, m)
	}
	for _, system := range mixSystems {
		for _, frac := range mixFracs {
			met, cpu, m, err := s.runOne(tr, sp, gen, system, frac)
			if err != nil {
				return fmt.Errorf("%s %s %g: %w", mixApps[i], system, frac, err)
			}
			s.cur.runs = append(s.cur.runs, mixRun{app: mixApps[i], system: system, frac: frac, met: met, cpu: cpu})
			if first {
				s.layer.add(met, m)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	s.cur.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	return nil
}

func (l *layerCounts) add(met sim.Metrics, m *sim.Machine) {
	l.accesses += met.Accesses
	l.llcMisses += met.Accesses - met.CacheHits
	l.majorFaults += met.MajorFaults
	l.faultStall += met.FaultStall.Millis()
	l.prefetchStall += met.PrefetchStall.Millis()
	fs := m.FabricStats()
	l.queueDelay += float64(fs.QueueDelaySum)
	l.transfers += float64(fs.Transfers)
	if st, ok := m.MCStats(); ok {
		l.hpdReads += st.ReadMisses
		l.hpdHot += st.HotEmitted
		l.rptWeighted += met.RPTCacheHitRate * float64(met.HotPagesEmitted)
		l.rptWeight += float64(met.HotPagesEmitted)
	}
	if ex, ok := m.HoPPExecStats(); ok {
		l.coreIssued += ex.Issued + ex.InjectedInPlace
		l.coreHits += ex.Hits + ex.LateHits
	} else if met.System != sim.NoPrefetch().Name {
		l.demandIssued += met.PrefetchIssued
		l.demandHits += met.PrefetchHits()
	}
}

// expUnit regenerates the next table or figure at quick scale. The
// first units of a run regenerate every one of them, in paper order.
func (s *simMix) expUnit(tr *tracer) {
	e := experiments.All()[len(s.expIDs)]
	sp := tr.begin("experiments.Run/"+e.ID, spanRef{})
	c0 := cpuNow()
	tables, err := e.Run(context.Background(), experiments.Options{Seed: s.seed, Quick: true})
	cpu := cpuNow() - c0
	tr.end(sp)
	s.o.attempted++
	if err != nil {
		s.o.failed++
	}
	s.expIDs = append(s.expIDs, e.ID)
	s.expCPU = append(s.expCPU, cpu.Seconds())
	s.expTables = append(s.expTables, tables)
	s.expErrs = append(s.expErrs, err)
}

func (s *simMix) unit(tr *tracer) (bool, error) {
	if len(s.expIDs) < len(experiments.All()) {
		s.expUnit(tr)
		return false, nil
	}
	if err := s.appUnit(tr); err != nil {
		return false, err
	}
	if len(s.cur.local) < len(mixApps) {
		return false, nil
	}
	s.passes = append(s.passes, s.cur)
	s.cur = pass{}
	return true, nil
}

// companionUnits is every experiment plus simCompanionPasses passes of
// the mix.
func (s *simMix) companionUnits() int {
	return len(experiments.All()) + simCompanionPasses*len(mixApps)
}

// simCompanionPasses is two: one pass is only about 2.5 CPU-s of
// simulation, too short a sample on a host whose speed drifts.
const simCompanionPasses = 2

func (s *simMix) check() []error {
	if len(s.passes) == 0 {
		return []error{fmt.Errorf("no pass ran")}
	}
	errs := checkPasses(s.passes, s.drained)
	// A fresh generator per app, one point each, must repeat the pass's
	// Metrics exactly: passes alone would not catch state leaking from one
	// run into the next through a reused generator.
	p0 := s.passes[0]
	for i, name := range mixApps {
		gen, _ := service.NewWorkload(name, false)
		r := p0.runs[i*len(mixSystems)*len(mixFracs)+i%(len(mixSystems)*len(mixFracs))]
		met, _, _, err := s.runOne(nil, spanRef{}, gen, r.system, r.frac)
		if err != nil {
			errs = append(errs, fmt.Errorf("re-run %s %s %g: %w", name, r.system, r.frac, err))
		} else if !reflect.DeepEqual(met, r.met) {
			errs = append(errs, fmt.Errorf("re-run %s %s %g: metrics differ from the pass", name, r.system, r.frac))
		}
	}
	for i, id := range s.expIDs {
		errs = append(errs, checkExperiment(id, s.expTables[i], s.expErrs[i])...)
	}
	return errs
}

// checkPasses verifies the accounting identities of every run and
// that every pass repeats the first one exactly.
func checkPasses(passes []pass, drained []uint64) []error {
	var errs []error
	per := len(mixSystems) * len(mixFracs)
	for pi, p := range passes {
		if len(p.local) != len(drained) || len(p.runs) != len(drained)*per {
			errs = append(errs, fmt.Errorf("pass %d has %d locals and %d runs, want %d and %d", pi, len(p.local), len(p.runs), len(drained), len(drained)*per))
			continue
		}
		for i, local := range p.local {
			errs = append(errs, checkRun(fmt.Sprintf("pass %d: %s local", pi, mixApps[i]), local, drained[i], sim.Metrics{})...)
			for _, r := range p.runs[i*per : (i+1)*per] {
				errs = append(errs, checkRun(fmt.Sprintf("pass %d: %s %s %g", pi, r.app, r.system, r.frac), r.met, drained[i], local)...)
			}
		}
		if pi == 0 {
			continue
		}
		if !reflect.DeepEqual(p.local, passes[0].local) {
			errs = append(errs, fmt.Errorf("pass %d: local baselines differ from pass 0", pi))
		}
		for i, r := range p.runs {
			if !reflect.DeepEqual(r.met, passes[0].runs[i].met) {
				errs = append(errs, fmt.Errorf("pass %d: %s %s %g differs from pass 0", pi, r.app, r.system, r.frac))
			}
		}
	}
	return errs
}

// checkRun verifies one run's Metrics against the independent access
// count and the §VI-A accounting identities.
func checkRun(what string, m sim.Metrics, accesses uint64, local sim.Metrics) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: "+format, append([]any{what}, args...)...))
	}
	if m.Accesses != accesses {
		bad("Accesses = %d, a fresh generator drains %d", m.Accesses, accesses)
	}
	if m.CacheHits+m.DRAMHits != m.Accesses {
		bad("CacheHits %d + DRAMHits %d != Accesses %d", m.CacheHits, m.DRAMHits, m.Accesses)
	}
	if m.RemoteReads != m.MajorFaults+m.PrefetchIssued {
		bad("RemoteReads %d != MajorFaults %d + PrefetchIssued %d", m.RemoteReads, m.MajorFaults, m.PrefetchIssued)
	}
	if m.PrefetchHits() > m.PrefetchIssued {
		bad("PrefetchHits %d > PrefetchIssued %d", m.PrefetchHits(), m.PrefetchIssued)
	}
	if m.CompletionTime <= 0 || m.CompletionTime < local.CompletionTime {
		bad("CompletionTime %v below the all-local %v", m.CompletionTime, local.CompletionTime)
	}
	return errs
}

// checkExperiment requires non-empty tables and every accuracy or
// coverage cell in [0, 1]. A column holds accuracy or coverage when its
// header names it; in a table whose title names accuracy or coverage
// and whose headers do not, every numeric cell does.
func checkExperiment(id string, tables []experiments.Table, err error) []error {
	if err != nil {
		return []error{fmt.Errorf("experiment %s: %w", id, err)}
	}
	if len(tables) == 0 {
		return []error{fmt.Errorf("experiment %s: no tables", id)}
	}
	var errs []error
	for _, t := range tables {
		if len(t.Header) == 0 || len(t.Rows) == 0 {
			errs = append(errs, fmt.Errorf("experiment %s: table %q is empty", id, t.Title))
			continue
		}
		cols := map[int]bool{}
		for i, h := range t.Header {
			if isRatioName(h) {
				cols[i] = true
			}
		}
		whole := len(cols) == 0 && isRatioName(t.Title)
		for _, row := range t.Rows {
			for i, cell := range row {
				if i == 0 || !(whole || cols[i]) {
					continue
				}
				v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
				if err != nil {
					continue // "-" and labels
				}
				if v < 0 || v > 1 || math.IsNaN(v) {
					errs = append(errs, fmt.Errorf("experiment %s: table %q: %s cell %q outside [0, 1]", id, t.Title, t.Header[min(i, len(t.Header)-1)], cell))
				}
			}
		}
	}
	return errs
}

func isRatioName(s string) bool {
	s = strings.ToLower(s)
	return strings.Contains(s, "accuracy") || strings.Contains(s, "coverage")
}

func (s *simMix) endToEnd() map[string]metric {
	var hoppAcc, demandAcc uint64
	var hoppCPU, demandCPU time.Duration
	var allocs []float64
	for _, p := range s.passes {
		for _, r := range p.runs {
			if r.system == "hopp" {
				hoppAcc += r.met.Accesses
				hoppCPU += r.cpu
			} else {
				demandAcc += r.met.Accesses
				demandCPU += r.cpu
			}
		}
		allocs = append(allocs, float64(p.alloc)/1e6)
	}
	var expTotal float64
	for _, c := range s.expCPU {
		expTotal += c
	}
	return map[string]metric{
		"hopp_maccess_per_cpu_s":   {float64(hoppAcc) / 1e6 / hoppCPU.Seconds(), "Maccess/CPU-s"},
		"demand_maccess_per_cpu_s": {float64(demandAcc) / 1e6 / demandCPU.Seconds(), "Maccess/CPU-s"},
		"exp_quick_cpu_s":          {expTotal, "s"},
		"sim_alloc_mb":             {median(allocs), "MB"},
		"hopp_norm_perf":           {s.normPerf("hopp"), "ratio"},
		"fastswap_norm_perf":       {s.normPerf("fastswap"), "ratio"},
	}
}

// normPerf is the geometric mean over the first pass of
// CT_local / CT_system for one system (§VI-A normalized performance),
// computed from simulated time only.
func (s *simMix) normPerf(system string) float64 {
	if len(s.passes) == 0 {
		return 0
	}
	p := s.passes[0]
	per := len(mixSystems) * len(mixFracs)
	sum, n := 0.0, 0
	for i, local := range p.local {
		for _, r := range p.runs[i*per : (i+1)*per] {
			if r.system == system {
				sum += math.Log(r.met.NormalizedPerformance(local))
				n++
			}
		}
	}
	return math.Exp(sum / float64(n))
}

func (s *simMix) perLayer() map[string]metric {
	l := s.layer
	out := map[string]metric{
		"cachesim.llc_miss_per_kaccess": {ratio(l.llcMisses, l.accesses) * 1000, "1/kaccess"},
		"hpd.hot_per_kmiss":             {ratio(l.hpdHot, l.hpdReads) * 1000, "1/kmiss"},
		"rpt.cache_hit_rate":            {l.rptWeighted / math.Max(l.rptWeight, 1), "ratio"},
		"core.issued":                   {float64(l.coreIssued), "count"},
		"core.accuracy":                 {ratio(l.coreHits, l.coreIssued), "ratio"},
		"prefetch.accuracy":             {ratio(l.demandHits, l.demandIssued), "ratio"},
		"sim.major_faults":              {float64(l.majorFaults), "count"},
		"sim.fault_stall_ms":            {l.faultStall, "ms"},
		"sim.prefetch_stall_ms":         {l.prefetchStall, "ms"},
		"rdma.queue_delay_ns":           {l.queueDelay / math.Max(l.transfers, 1), "ns"},
	}
	for i, id := range s.expIDs {
		out["exp."+id+".cpu_s"] = metric{s.expCPU[i], "s"}
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (s *simMix) ops() ops { return s.o }
func (s *simMix) close()   {}
