package main

import (
	"fmt"
	"strings"

	"fpint/internal/analysis"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/interp"
	"fpint/internal/ir"
	"fpint/internal/irgen"
	"fpint/internal/isa"
	"fpint/internal/lang"
	"fpint/internal/obs"
	"fpint/internal/opt"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// Counter names the traced replays accumulate alongside their spans.
const (
	cntIRInsts     = "opt.ir_insts"
	cntDynIR       = "interp.dyn_ir_insts"
	cntStaticInsts = "codegen.static_insts"
	cntSpillSlots  = "codegen.spill_slots"
	cntExpansions  = "core.oracle_expansions"
	cntDegraded    = "core.oracle_degraded"
	cntSimRuns     = "sim.runs"
	cntSimAlloc    = "sim.alloc_bytes"
	cntTimingRuns  = "timing.runs"
	cntTimingAlloc = "timing.alloc_bytes"
	cntGuestCycles = "guest.cycles"
	cntGuestInsts  = "guest.dyn_insts"
	cntInstsOf     = "insts:" // + span name: guest instructions the span simulated
)

// fpicCost is the cost model fpic compiles with by default.
var fpicCost = core.CostParams{OCopy: 4, ODupl: 2}

// cfgKey is the metric-name form of a machine configuration ("4way").
func cfgKey(cfg uarch.Config) string { return strings.ReplaceAll(cfg.Name, "-", "") }

// machines are the two Table 1 configurations.
func machines() []uarch.Config { return []uarch.Config{uarch.Config4Way(), uarch.Config8Way()} }

// moduleInsts counts a module's IR instructions.
func moduleInsts(mod *ir.Module) int {
	n := 0
	for _, fn := range mod.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// frontendTraced replays codegen.FrontendPipeline (or, with profile
// false, difftest.Frontend followed by its reference run) as the sequence
// of public calls it makes, one span per layer. stepLimit bounds the
// interpreter run (0 keeps its default).
func frontendTraced(tr *tracer, op, parent int, src string, stepLimit int64) (*ir.Module, *interp.Result, error) {
	id := tr.begin(op, parent, spanParse)
	prog, err := lang.Parse(src)
	if err == nil {
		err = lang.Check(prog)
	}
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(op, parent, spanLower)
	mod, err := irgen.Lower(prog)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(op, parent, spanOpt)
	opt.Optimize(mod)
	for _, fn := range mod.Funcs {
		if err == nil {
			err = fn.Verify()
		}
	}
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	tr.count(cntIRInsts, float64(moduleInsts(mod)))
	id = tr.begin(op, parent, spanInterp)
	m := interp.New(mod)
	if stepLimit > 0 {
		m.SetStepLimit(stepLimit)
	}
	res, err := m.Run()
	tr.end(id)
	if res != nil {
		tr.count(cntDynIR, float64(res.Steps))
		tr.count(cntInstsOf+spanInterp, float64(res.Steps))
	}
	return mod, res, err
}

// analysisProbe times analysis.AnalyzeModule once for mod. codegen runs
// the analysis inside Compile, where it cannot be timed from outside; the
// probe's duration stands in for each of those hidden runs. The probe is
// work the untraced op does not do, so the op's clock leaves it out.
func analysisProbe(tr *tracer, op, parent int, mod *ir.Module) int64 {
	id := tr.begin(op, parent, "analysis.probe")
	analysis.AnalyzeModule(mod)
	return tr.endExtra(id).Nanoseconds()
}

// compileTraced runs one codegen compile with a pass log attached and
// turns the log's records into derived child spans: the partitioner (or,
// under the optimal scheme, the exact oracle), instruction selection and
// register allocation. With analysisNS > 0 the hidden analysis run gets a
// derived child of that length too. fallback selects the degradation
// ladder (codegen.CompileWithFallback) over a direct codegen.Compile.
func compileTraced(tr *tracer, op, parent int, mod *ir.Module, opts codegen.Options, analysisNS int64, fallback bool) (*codegen.Result, error) {
	opts.PassLog = &obs.PassLog{}
	id := tr.begin(op, parent, spanCompile)
	var res *codegen.Result
	var err error
	if fallback {
		res, err = codegen.CompileWithFallback(mod, opts)
	} else {
		res, err = codegen.Compile(mod, opts)
	}
	tr.end(id)
	tr.mu.Lock()
	at := tr.spans[id-1].Start
	tr.mu.Unlock()
	if opts.Analysis && opts.Scheme != codegen.SchemeNone && analysisNS > 0 {
		tr.derived(id, spanAnalysis, &at, analysisNS)
	}
	for _, r := range opts.PassLog.Records {
		name := ""
		switch r.Pass {
		case "partition":
			name = spanPartition
			if opts.Scheme == codegen.SchemeOptimal {
				name = spanOracle
			}
		case "select":
			name = spanSelect
		case "regalloc":
			name = spanRegalloc
		default:
			continue
		}
		tr.derived(id, name, &at, r.Nanos)
	}
	if err != nil {
		return nil, err
	}
	for _, st := range res.Stats {
		tr.count(cntStaticInsts, float64(st.StaticInsts))
		tr.count(cntSpillSlots, float64(st.SpillSlots))
	}
	for _, rep := range res.Oracle {
		tr.count(cntExpansions, float64(rep.Expansions))
		tr.count(cntDegraded, float64(rep.Degraded))
	}
	return res, nil
}

// functionalTraced runs prog on a fresh functional simulator, as a
// sim.run span with its guest instruction count and allocations. extra
// marks a run the untraced op does not make.
func functionalTraced(tr *tracer, op, parent int, prog *isa.Program, stepLimit int64, extra bool) (*sim.Result, error) {
	alloc := tr.allocMeter()
	id := tr.begin(op, parent, spanSim)
	m := sim.New(prog)
	if stepLimit > 0 {
		m.SetStepLimit(stepLimit)
	}
	out, err := m.Run()
	if extra {
		tr.endExtra(id)
	} else {
		tr.end(id)
	}
	alloc(cntSimAlloc, cntSimRuns)
	if out != nil {
		tr.count(cntInstsOf+spanSim, float64(out.Stats.Total))
	}
	return out, err
}

// sumStalls is Σ over subsystems and causes of the stall ledger.
func sumStalls(st *uarch.Stats) int64 {
	var n int64
	for _, row := range st.StallBySub {
		for _, c := range row {
			n += c
		}
	}
	return n
}

// checkLedger checks the timing model's closed accounting against the
// functional run: every cycle either issued or is charged to exactly one
// stall, and both engines saw the same dynamic instructions.
func checkLedger(what string, st *uarch.Stats, out *sim.Result) error {
	if st.Cycles <= 0 {
		return fmt.Errorf("%s: %d cycles", what, st.Cycles)
	}
	if got := st.IssueActiveCycles + sumStalls(st); got != st.Cycles {
		return fmt.Errorf("%s: issue-active %d + stalls %d = %d, cycles %d", what, st.IssueActiveCycles, sumStalls(st), got, st.Cycles)
	}
	if st.Instructions != out.Stats.Total {
		return fmt.Errorf("%s: timing model committed %d instructions, functional run %d", what, st.Instructions, out.Stats.Total)
	}
	return nil
}
