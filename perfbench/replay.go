package main

import (
	"runtime"
	"time"

	"hopp/internal/cachesim"
	"hopp/internal/core"
	"hopp/internal/hmtt"
	"hopp/internal/hpd"
	"hopp/internal/mc"
	"hopp/internal/memsim"
	"hopp/internal/rdma"
	"hopp/internal/rpt"
	"hopp/internal/service"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// The layer replay re-drives each layer's public API with the mix's own
// streams: the first replayAccesses accesses of every sim-mix
// application, their LLC misses, hot pages and faults, and the
// hmtt-ingest upload. Calls are timed in batches, one span per batch, so
// the timer costs little beside the calls.
const (
	replayAccesses = 1 << 18
	replayBatch    = 1024
	replayPID      = memsim.PID(1)
)

// layerTimer sums batch spans per layer.
type layerTimer struct {
	tr    *tracer
	root  spanRef
	ns    map[string]float64
	calls map[string]float64
}

// batch times fn, which makes n calls into layer.
func (l *layerTimer) batch(layer string, n int, fn func()) {
	sp := l.tr.begin(layer, l.root)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.end(sp)
	l.ns[layer] += float64(d)
	l.calls[layer] += float64(n)
}

func (l *layerTimer) perCall(layer string) float64 {
	if l.calls[layer] == 0 {
		return 0
	}
	return l.ns[layer] / l.calls[layer]
}

// miss is one LLC miss of the replayed stream.
type miss struct {
	pa    memsim.PAddr
	write bool
}

func replayLayers(tr *tracer, seed int64, upload []byte) map[string]metric {
	l := &layerTimer{tr: tr, root: tr.begin("layer-replay", spanRef{}), ns: map[string]float64{}, calls: map[string]float64{}}
	defer tr.end(l.root)
	accs := make([]workload.Access, 0, replayAccesses)
	for _, name := range mixApps {
		gen, _ := service.NewWorkload(name, false)
		gen.Reset(seed)
		accs = accs[:0]
		for len(accs) < replayAccesses {
			n := 0
			l.batch("workload.Next", replayBatch, func() {
				for ; n < replayBatch; n++ {
					a, ok := gen.Next()
					if !ok {
						break
					}
					accs = append(accs, a)
				}
			})
			if n < replayBatch {
				break
			}
		}
		replayApp(l, seed, accs, gen.FootprintPages())
	}
	replayFabric(l, seed)
	replayEvents(l)
	newUS, newKB := replayMachineNew(l, seed)
	replayDecode(l, upload)

	return map[string]metric{
		"workload.next_ns":             {l.perCall("workload.Next"), "ns"},
		"cachesim.access_ns":           {l.perCall("cachesim.Hierarchy.Access"), "ns"},
		"cachesim.invalidate_ns":       {l.perCall("cachesim.Hierarchy.InvalidatePage"), "ns"},
		"hpd.access_ns":                {l.perCall("hpd.Table.Access"), "ns"},
		"mc.observe_ns":                {l.perCall("mc.Controller.ObserveMiss"), "ns"},
		"rpt.lookup_ns":                {l.perCall("rpt.Cache.Lookup"), "ns"},
		"core.observe_ns":              {l.perCall("core.Trainer.Observe"), "ns"},
		"prefetch.fastswap.onfault_ns": {l.perCall("prefetch.fastswap.OnFault"), "ns"},
		"prefetch.spp.onfault_ns":      {l.perCall("prefetch.spp.OnFault"), "ns"},
		"vmm.access_ns":                {l.perCall("vmm.VMM.Access"), "ns"},
		"vmm.reclaim_ns":               {l.perCall("vmm.VMM.ReclaimInto"), "ns"},
		"rdma.page_read_ns":            {l.perCall("rdma.Fabric.PageRead"), "ns"},
		"vclock.event_ns":              {l.perCall("vclock.EventQueue"), "ns"},
		"hmtt.decode_ns":               {l.perCall("hmtt.Decoder.Feed"), "ns"},
		"sim.new_us":                   {newUS, "us"},
		"sim.new_alloc_kb":             {newKB, "KB"},
	}
}

// replayApp drives one application's accesses down the machine's
// layers: the cache hierarchy, then its misses through HPD, the MC, the
// RPT cache, the HoPP trainer and the demand prefetchers, and its pages
// through the VMM at 25% local memory.
func replayApp(l *layerTimer, seed int64, accs []workload.Access, footprint int) {
	h := cachesim.NewHierarchy(
		cachesim.New(cachesim.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8}),
		cachesim.New(cachesim.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16}),
	)
	var misses []miss
	for i := 0; i < len(accs); i += replayBatch {
		part := accs[i:min(i+replayBatch, len(accs))]
		l.batch("cachesim.Hierarchy.Access", len(part), func() {
			for _, a := range part {
				pa := memsim.PAddr(a.Addr)
				if h.Access(pa) == cachesim.LevelMemory {
					misses = append(misses, miss{pa, a.Write})
				}
			}
		})
	}
	tail := misses[max(0, len(misses)-replayBatch):]
	l.batch("cachesim.Hierarchy.InvalidatePage", len(tail), func() {
		for _, m := range tail {
			h.InvalidatePage(m.pa.Page())
		}
	})

	table := hpd.MustNew(hpd.Default())
	var hot []memsim.PPN
	for i := 0; i < len(misses); i += replayBatch {
		part := misses[i:min(i+replayBatch, len(misses))]
		l.batch("hpd.Table.Access", len(part), func() {
			for _, m := range part {
				if !m.write && table.Access(m.pa.Page()) {
					hot = append(hot, m.pa.Page())
				}
			}
		})
	}

	ctl := mc.MustNew(mc.Config{})
	var drained []mc.HotPage
	for i := 0; i < len(misses); i += replayBatch {
		part := misses[i:min(i+replayBatch, len(misses))]
		base := i
		l.batch("mc.Controller.ObserveMiss", len(part), func() {
			for j, m := range part {
				ctl.ObserveMiss(vclock.Time(base+j)*100, m.pa, m.write)
			}
		})
		drained = ctl.DrainInto(drained[:0], 0)
	}

	rptTable := rpt.NewTable()
	for _, p := range hot {
		rptTable.Store(p, rpt.Entry{PID: replayPID, VPN: memsim.VPN(p), Valid: true}.Pack())
	}
	cache := rpt.MustNewCache(rptTable, rpt.CacheConfig{})
	for i := 0; i < len(hot); i += replayBatch {
		part := hot[i:min(i+replayBatch, len(hot))]
		l.batch("rpt.Cache.Lookup", len(part), func() {
			for _, p := range part {
				cache.Lookup(p)
			}
		})
	}

	trainer := core.NewTrainer(core.DefaultParams())
	for i := 0; i < len(hot); i += replayBatch {
		part := hot[i:min(i+replayBatch, len(hot))]
		base := i
		l.batch("core.Trainer.Observe", len(part), func() {
			for j, p := range part {
				trainer.Observe(vclock.Time(base+j)*1000, replayPID, memsim.VPN(p))
			}
		})
	}

	// Faults: the read misses' pages, one per run of misses to a page.
	var faults []memsim.VPN
	for _, m := range misses {
		v := memsim.VPN(m.pa.Page())
		if !m.write && (len(faults) == 0 || faults[len(faults)-1] != v) {
			faults = append(faults, v)
		}
	}
	for _, name := range []string{"fastswap", "spp"} {
		p := newMixSystem(name).NewFault(nil)
		layer := "prefetch." + name + ".OnFault"
		for i := 0; i < len(faults); i += replayBatch {
			part := faults[i:min(i+replayBatch, len(faults))]
			base := i
			l.batch(layer, len(part), func() {
				for j, v := range part {
					p.OnFault(vclock.Time(base+j)*1000, memsim.PageKey{PID: replayPID, VPN: v})
				}
			})
		}
	}

	replayVMM(l, accs, footprint)
}

// replayVMM pages the accesses through a VMM whose cgroup holds 25% of
// the footprint: every miss maps the page and reclaims past the limit.
// Access is timed in batches over the resulting resident set; reclaim is
// timed per call.
func replayVMM(l *layerTimer, accs []workload.Access, footprint int) {
	v := vmm.New(vmm.Config{})
	if _, err := v.Register(replayPID, max(footprint/4, 16)); err != nil {
		panic(err) // a fresh VMM has no PIDs registered
	}
	var victims []vmm.Victim
	reclaim := func() {
		sp := l.tr.begin("vmm.VMM.ReclaimInto", l.root)
		t0 := time.Now()
		victims = v.ReclaimInto(replayPID, victims[:0])
		l.ns["vmm.VMM.ReclaimInto"] += float64(time.Since(t0))
		l.calls["vmm.VMM.ReclaimInto"]++
		l.tr.end(sp)
	}
	for _, a := range accs {
		key := memsim.PageKey{PID: replayPID, VPN: a.Addr.Page()}
		switch st, _, _ := v.Access(key); st {
		case vmm.Untouched:
			_, _ = v.MapNew(key) //hopplint:errok the page is untouched and its PID registered, so mapping cannot fail
			reclaim()
		case vmm.SwappedOut:
			_, _ = v.MapRemote(key, false) //hopplint:errok the page is swapped out and its PID registered, so mapping cannot fail
			reclaim()
		}
	}
	for i := 0; i < len(accs); i += replayBatch {
		part := accs[i:min(i+replayBatch, len(accs))]
		l.batch("vmm.VMM.Access", len(part), func() {
			for _, a := range part {
				v.Access(memsim.PageKey{PID: replayPID, VPN: a.Addr.Page()})
			}
		})
	}
}

// replayFabric times page reads on an RDMA link, one every microsecond
// of simulated time.
func replayFabric(l *layerTimer, seed int64) {
	f := rdma.NewFabric(rdma.Config{Seed: seed})
	now := vclock.Time(0)
	for i := 0; i < 256; i++ {
		l.batch("rdma.Fabric.PageRead", replayBatch, func() {
			for j := 0; j < replayBatch; j++ {
				now = now.Add(vclock.Microsecond)
				f.PageRead(now)
			}
		})
	}
}

// replayEvents times Schedule+Pop pairs on an event queue holding a
// batch of pending events.
func replayEvents(l *layerTimer) {
	var q vclock.EventQueue
	fn := func(vclock.Time) {}
	x := uint64(1)
	for i := 0; i < 256; i++ {
		l.batch("vclock.EventQueue", replayBatch, func() {
			for j := 0; j < replayBatch; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				q.Schedule(vclock.Time(x>>40), fn)
			}
			for q.Len() > 0 {
				q.Pop()
			}
		})
	}
}

// replayMachineNew times sim.New for every catalog workload at quick
// scale under HoPP, as the service builds a machine per run, and reports
// microseconds and kilobytes allocated per machine.
func replayMachineNew(l *layerTimer, seed int64) (us, kb float64) {
	var ms0, ms1 runtime.MemStats
	var ns, bytes, n float64
	for _, name := range service.WorkloadNames() {
		gen, _ := service.NewWorkload(name, true)
		cfg := sim.Config{System: sim.HoPP(), LocalMemoryFrac: 0.5, Seed: seed, L2Bytes: 64 << 10, LLCBytes: 512 << 10}
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms0)
			sp := l.tr.begin("sim.New", l.root)
			t0 := time.Now()
			_, err := sim.New(cfg, gen)
			ns += float64(time.Since(t0))
			l.tr.end(sp)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				continue
			}
			bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return ns / n / 1e3, bytes / n / 1024
}

// replayDecode times the streaming HMTT decoder over the ingest upload
// in chunk-sized pieces.
func replayDecode(l *layerTimer, upload []byte) {
	var d hmtt.Decoder
	var n int
	emit := func(hmtt.Record, int) { n++ }
	step := ingestChunkRecords * hmtt.RecordSize
	for off := 0; off < len(upload); off += step {
		part := upload[off:min(off+step, len(upload))]
		l.batch("hmtt.Decoder.Feed", len(part)/hmtt.RecordSize, func() { d.Feed(part, emit) })
	}
}
