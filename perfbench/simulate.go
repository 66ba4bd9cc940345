package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// simPrograms are the mid-sized suite programs the simulate workload runs:
// 0.8–1.2 M guest instructions each, long enough that the timing model
// dominates an op, short enough for several whole rounds per run.
var simPrograms = []string{"compress", "ijpeg", "li"}

// simSpec is one fpisim invocation: program, scheme, timing mode, machine.
type simSpec struct {
	prog    program
	scheme  codegen.Scheme
	sampled bool
	cfg     uarch.Config
}

func (s simSpec) String() string {
	mode := "detailed"
	if s.sampled {
		mode = "sampled"
	}
	return fmt.Sprintf("%s/%s/%s/%s", s.prog.Name, s.scheme, mode, cfgKey(s.cfg))
}

// pairKey names the (program, scheme, machine) a detailed and a sampled
// run share.
func (s simSpec) pairKey() string {
	return fmt.Sprintf("%s/%s/%s", s.prog.Name, s.scheme, cfgKey(s.cfg))
}

type simulateWorkload struct {
	specs  []simSpec
	sample uarch.SampleConfig
	rng    *rand.Rand

	cycles   map[string]int64 // spec → guest cycles of its first run
	detailed map[string]int64 // pairKey → detailed cycles
	estimate map[string]int64 // pairKey → sampled estimate
}

// setupSimulate builds the op mix and computes each program's reference
// result with the IR interpreter. The seed orders the ops of every round
// and picks the phase of the sampled-timing windows.
func setupSimulate(seed int64) (*simulateWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &simulateWorkload{
		sample:   uarch.DefaultSampleConfig(),
		rng:      rng,
		cycles:   map[string]int64{},
		detailed: map[string]int64{},
		estimate: map[string]int64{},
	}
	w.sample.Seed = uint64(rng.Int63())
	for _, name := range simPrograms {
		bw := bench.Lookup(name)
		if bw == nil {
			return nil, fmt.Errorf("suite program %q missing", name)
		}
		r, err := interpRef(bw.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %v", name, err)
		}
		p := program{Name: name, Src: bw.Src, Ref: r}
		for _, sch := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeAdvanced} {
			for _, sampled := range []bool{false, true} {
				for _, cfg := range machines() {
					w.specs = append(w.specs, simSpec{prog: p, scheme: sch, sampled: sampled, cfg: cfg})
				}
			}
		}
	}
	return w, nil
}

// simulateOp is what `fpisim -timing [-fast] -scheme S -config C` does for
// one program: compile through the degradation ladder, then one detailed
// pipeline run or one sampled run on a fresh machine.
func simulateOp(sp simSpec, sample uarch.SampleConfig) (*sim.Result, uarch.Stats, error) {
	res, _, err := codegen.CompileSourceWithFallback(sp.prog.Src, codegen.Options{Scheme: sp.scheme})
	if err != nil {
		return nil, uarch.Stats{}, err
	}
	if sp.sampled {
		out, sst, err := uarch.NewMachine(sp.cfg).RunSampled(res.Prog, sample)
		return out, sst.Stats, err
	}
	p := uarch.NewPipeline(sp.cfg)
	m := sim.New(res.Prog)
	m.Trace = p.Feed
	out, err := m.Run()
	if err != nil {
		return nil, uarch.Stats{}, err
	}
	return out, p.Finish(), nil
}

// simulateTraced replays simulateOp as its public calls. A sampled op
// also gets a functional-only pass: the sampled run interleaves the
// functional simulator with its windows, and the separate pass is what
// splits the two (the split is derived, not observed inside the run). The
// untraced op makes no such pass, so the op's clock leaves it out.
func simulateTraced(tr *tracer, sp simSpec, sample uarch.SampleConfig) (*sim.Result, uarch.Stats, error) {
	op := tr.newOp()
	root := tr.begin(op, 0, spanOp)
	defer tr.end(root)
	mod, prof, err := frontendTraced(tr, op, root, sp.prog.Src, 0)
	if err != nil {
		return nil, uarch.Stats{}, err
	}
	res, err := compileTraced(tr, op, root, mod, codegen.Options{Scheme: sp.scheme, Profile: prof.Profile}, 0, true)
	if err != nil {
		return nil, uarch.Stats{}, err
	}
	alloc := tr.allocMeter()
	var out *sim.Result
	var st uarch.Stats
	if sp.sampled {
		id := tr.begin(op, root, spanSetup)
		fm := uarch.NewMachine(sp.cfg)
		tr.end(id)
		name := spanSampled + cfgKey(sp.cfg)
		id = tr.begin(op, root, name)
		var sst uarch.SampledStats
		out, sst, err = fm.RunSampled(res.Prog, sample)
		tr.end(id)
		st = sst.Stats
		if err == nil {
			tr.count(cntInstsOf+name, float64(out.Stats.Total))
		}
	} else {
		id := tr.begin(op, root, spanSetup)
		p := uarch.NewPipeline(sp.cfg)
		m := sim.New(res.Prog)
		m.Trace = p.Feed
		tr.end(id)
		name := spanDetailed + cfgKey(sp.cfg)
		id = tr.begin(op, root, name)
		out, err = m.Run()
		if err == nil {
			st = p.Finish()
		}
		tr.end(id)
		if err == nil {
			tr.count(cntInstsOf+name, float64(out.Stats.Total))
		}
	}
	if err != nil {
		return nil, uarch.Stats{}, err
	}
	alloc(cntTimingAlloc, cntTimingRuns)
	tr.count(cntGuestCycles, float64(st.Cycles))
	tr.count(cntGuestInsts, float64(out.Stats.Total))
	if sp.sampled {
		if _, err := functionalTraced(tr, op, root, res.Prog, 0, true); err != nil {
			return nil, uarch.Stats{}, err
		}
	}
	return out, st, nil
}

// round runs every spec once, in a seeded order.
func (w *simulateWorkload) round(l *loop, tr *tracer, _ int) {
	for _, i := range w.rng.Perm(len(w.specs)) {
		sp := w.specs[i]
		start := time.Now()
		var out *sim.Result
		var st uarch.Stats
		var err error
		if tr != nil {
			out, st, err = simulateTraced(tr, sp, w.sample)
		} else {
			out, st, err = simulateOp(sp, w.sample)
		}
		d := time.Since(start) - tr.takeExtra()
		if err != nil {
			l.fail("simulate error")
			l.wrong("%s: %v", sp, err)
			continue
		}
		l.ok(d)
		w.check(l, sp, out, &st)
	}
}

// check verifies one op's outputs: the reference result, the closed stall
// ledger, and identical guest cycles for every repeat of a spec.
func (w *simulateWorkload) check(l *loop, sp simSpec, out *sim.Result, st *uarch.Stats) {
	if err := checkRef(sp.String(), sp.prog.Ref, out.Ret, out.Output); err != nil {
		l.wrong("%v", err)
	}
	if err := checkLedger(sp.String(), st, out); err != nil {
		l.wrong("%v", err)
	}
	key := sp.String()
	if c, seen := w.cycles[key]; seen && c != st.Cycles {
		l.wrong("%s: repeat ran %d guest cycles, first run %d", key, st.Cycles, c)
	} else if !seen {
		w.cycles[key] = st.Cycles
	}
	if sp.sampled {
		w.estimate[sp.pairKey()] = st.Cycles
	} else {
		w.detailed[sp.pairKey()] = st.Cycles
	}
}

// maxSampledErrPct checks every sampled estimate against the detailed run
// of the same program, scheme and machine, returning the largest error.
func (w *simulateWorkload) maxSampledErrPct(l *loop) float64 {
	worst := 0.0
	for k, d := range w.detailed {
		e, ok := w.estimate[k]
		if !ok {
			continue
		}
		pct := 100 * math.Abs(float64(e-d)) / float64(d)
		if pct > 5 {
			l.wrong("%s: sampled estimate %d cycles is %.2f%% off the detailed %d", k, e, pct, d)
		}
		worst = math.Max(worst, pct)
	}
	return worst
}
