package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/platform"
)

// policyNames are the defense policies whose denials are reported; a
// policy absent from a workload's chain reports 0. SynchroTrap's tap only
// records and never denies, so it has none.
var policyNames = []string{"token-rate-limit", "ip-rate-limit", "as-block"}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// phaseSnap is the counters read at one edge of an op phase.
type phaseSnap struct {
	rt                 []metrics.Sample
	user, sys          time.Duration
	acquired, contends int64
	spans              int64
	denials            map[string]int64
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// snapPhase reads the process and platform counters the per-layer
// metrics are deltas of. It runs outside the timed op phase.
func snapPhase(p *platform.Platform) phaseSnap {
	s := phaseSnap{rt: readRuntime()}
	s.user, s.sys = rusage()
	s.acquired, s.contends = p.Graph.Contention().Totals()
	tr := p.Obs.T()
	s.spans = tr.Dropped() + int64(len(tr.Spans()))
	s.denials = p.Chain().Denials()
	return s
}

// phaseLayer returns the per-layer metrics of the phase between a and b
// over ops client ops.
func phaseLayer(a, b phaseSnap, ops int64) map[string]float64 {
	n := float64(ops)
	d := func(i int) float64 { return sampleFloat(b.rt[i]) - sampleFloat(a.rt[i]) }
	user, sys := b.user-a.user, b.sys-a.sys
	m := map[string]float64{
		"runtime.allocs_per_op":           ratio(d(0), n),
		"runtime.alloc_bytes_per_op":      ratio(d(1), n),
		"runtime.gc_cpu_frac":             ratio(d(2), d(3)),
		"runtime.cpu_us_per_op":           ratio(us(user+sys), n),
		"runtime.sys_cpu_frac":            ratio(float64(sys), float64(user+sys)),
		"socialgraph.lock_contended_frac": ratio(float64(b.contends-a.contends), float64(b.acquired-a.acquired)),
		"obs.spans_per_op":                ratio(float64(b.spans-a.spans), n),
	}
	for _, name := range policyNames {
		m["defense.denials_per_kop."+name] = ratio(1000*float64(b.denials[name]-a.denials[name]), n)
	}
	return m
}

// measureHeap forces a GC with the world still reachable and returns the
// live heap and the heap per retained graph edge.
func measureHeap(p *platform.Platform) (live uint64, perEdge float64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e := p.Graph.RetainedEdges()
	return ms.HeapAlloc, ratio(float64(ms.HeapAlloc), float64(e.Likes+e.Comments+e.Activities))
}
