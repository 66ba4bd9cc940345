package main

import (
	"math"

	"fpint/internal/obs"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"mem_mib_p50", "MiB"},
}

// perLayer are the metrics a traced run prints. A layer a workload does
// not exercise reads 0 (the README says which workload moves which).
var perLayer = []metricDef{
	{"lang.parse_check_ms", "ms/op"},
	{"irgen.lower_ms", "ms/op"},
	{"opt.optimize_ms", "ms/op"},
	{"opt.ir_insts", "count"},
	{"interp.profile_ms", "ms/op"},
	{"interp.ns_per_ir_inst", "ns"},
	{"interp.dyn_ir_insts", "count"},
	{"analysis.analyze_ms", "ms/op"},
	{"core.partition_ms", "ms/op"},
	{"codegen.backend_ms", "ms/op"},
	{"codegen.static_insts", "count"},
	{"codegen.spill_slots", "count"},
	{"core.oracle_ms", "ms/op"},
	{"core.oracle_expansions", "count/op"},
	{"core.oracle_degraded", "count"},
	{"sim.ns_per_inst", "ns"},
	{"sim.alloc_mib_per_run", "MiB"},
	{obs.PrefixUarch + "alloc_mib_per_run", "MiB"},
	{obs.PrefixUarch + "setup_ms", "ms/run"},
	{obs.PrefixUarch + "detailed_ns_per_inst.4way", "ns"},
	{obs.PrefixUarch + "detailed_ns_per_inst.8way", "ns"},
	{obs.PrefixUarch + "sampled_ns_per_inst.4way", "ns"},
	{obs.PrefixUarch + "sampled_ns_per_inst.8way", "ns"},
	{obs.PrefixUarch + "sampled_speedup", "ratio"},
	{"guest.cycles", "count"},
	{"guest.dyn_insts", "count"},
	{"guest.fast_err_pct_max", "%"},
	{obs.PrefixService + "hit_ms_p50", "ms"},
	{obs.PrefixService + "miss_ms_p50", "ms"},
	{obs.PrefixService + "cache_hit_ratio", "ratio"},
	{obs.PrefixService + "resp_kib_p50", "KiB"},
	{obs.PrefixService + "jobs_shed", "count"},
	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"op_ms_tail", "ms"},
	{"trace.overhead_pct", "%"},
}

// tracedLayers derives the span-based per-layer metrics of a traced phase.
// Times per op divide by the phase's attempted ops; counts are per op,
// except the guest totals and degraded components, which are per round
// (one pass over the workload's mix).
func tracedLayers(tr *tracer, p phase, m map[string]float64) {
	self, n := tr.selfTimes()
	c := tr.counts
	ops := math.Max(1, float64(p.l.attempted))
	rounds := math.Max(1, float64(p.rounds))
	msPerOp := func(names ...string) float64 {
		t := 0.0
		for _, name := range names {
			t += self[name]
		}
		return t / ops / 1e6
	}
	nsPerInst := func(span string) float64 { return self[span] / c[cntInstsOf+span] }

	m["lang.parse_check_ms"] = msPerOp(spanParse)
	m["irgen.lower_ms"] = msPerOp(spanLower)
	m["opt.optimize_ms"] = msPerOp(spanOpt)
	m["opt.ir_insts"] = c[cntIRInsts] / ops
	m["interp.profile_ms"] = msPerOp(spanInterp)
	m["interp.ns_per_ir_inst"] = nsPerInst(spanInterp)
	m["interp.dyn_ir_insts"] = c[cntDynIR] / ops
	m["analysis.analyze_ms"] = msPerOp(spanAnalysis)
	m["core.partition_ms"] = msPerOp(spanPartition)
	m["codegen.backend_ms"] = msPerOp(spanSelect, spanRegalloc, spanCompile)
	m["codegen.static_insts"] = c[cntStaticInsts] / ops
	m["codegen.spill_slots"] = c[cntSpillSlots] / ops
	m["core.oracle_ms"] = msPerOp(spanOracle)
	m["core.oracle_expansions"] = c[cntExpansions] / ops
	m["core.oracle_degraded"] = c[cntDegraded] / rounds
	m["sim.ns_per_inst"] = nsPerInst(spanSim)
	m["sim.alloc_mib_per_run"] = c[cntSimAlloc] / c[cntSimRuns] / (1 << 20)
	m[obs.PrefixUarch+"alloc_mib_per_run"] = c[cntTimingAlloc] / c[cntTimingRuns] / (1 << 20)
	m[obs.PrefixUarch+"setup_ms"] = self[spanSetup] / n[spanSetup] / 1e6
	var detNS, detInsts, smpNS, smpInsts float64
	for _, k := range []string{"4way", "8way"} {
		d, s := spanDetailed+k, spanSampled+k
		m[obs.PrefixUarch+"detailed_ns_per_inst."+k] = nsPerInst(d)
		m[obs.PrefixUarch+"sampled_ns_per_inst."+k] = nsPerInst(s)
		detNS, detInsts = detNS+self[d], detInsts+c[cntInstsOf+d]
		smpNS, smpInsts = smpNS+self[s], smpInsts+c[cntInstsOf+s]
	}
	m[obs.PrefixUarch+"sampled_speedup"] = (detNS / detInsts) / (smpNS / smpInsts)
	m["guest.cycles"] = c[cntGuestCycles] / rounds
	m["guest.dyn_insts"] = c[cntGuestInsts] / rounds
}

// The workloads' own post-phase checks and per-layer figures.

func (w *simulateWorkload) concurrent() bool { return false }
func (w *simulateWorkload) close()           {}
func (w *simulateWorkload) after(l *loop, _ *tracer, m map[string]float64) {
	m["guest.fast_err_pct_max"] = math.Max(m["guest.fast_err_pct_max"], w.maxSampledErrPct(l))
}

func (w *compileWorkload) concurrent() bool { return false }
func (w *compileWorkload) close()           {}
func (w *compileWorkload) after(l *loop, _ *tracer, m map[string]float64) {
	w.checkRuns(l)
}

func (w *fuzzWorkload) concurrent() bool                         { return false }
func (w *fuzzWorkload) close()                                   {}
func (w *fuzzWorkload) after(*loop, *tracer, map[string]float64) {}

func (w *serveWorkload) concurrent() bool { return true }
func (w *serveWorkload) after(l *loop, tr *tracer, m map[string]float64) {
	w.checkCache(l)
	shed := w.checkStats(l)
	if tr != nil {
		w.replay(l, tr)
		return // client-side figures come from the untraced rounds
	}
	ratio := w.hitRatio()
	w.mu.Lock()
	defer w.mu.Unlock()
	m[obs.PrefixService+"hit_ms_p50"] = median(w.hitMS)
	m[obs.PrefixService+"miss_ms_p50"] = median(w.missMS)
	m[obs.PrefixService+"resp_kib_p50"] = median(w.respBytes) / 1024
	m[obs.PrefixService+"jobs_shed"] = shed
	m[obs.PrefixService+"cache_hit_ratio"] = ratio
}
