package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/difftest"
	"fpint/internal/interp"
	"fpint/internal/trap"
	"fpint/internal/uarch"
)

// fuzzCatalogue is the number of generated programs in one fuzz round:
// the generator seeds from 1 upward, as the CI sweep `fpifuzz -seed 1`
// checks them, minus any the oracle would skip. The set does not depend on
// --seed: a check costs from 35 ms to 1.4 s depending on how hard the
// exact oracle's search is, and about one program in eight takes over
// 0.8 s, so how many of those a seeded draw of thirty holds would move
// throughput by roughly a quarter from seed to seed.
const fuzzCatalogue = 30

// fuzzStepLimit is difftest.Check's default reference step budget.
const fuzzStepLimit = 2_000_000

type fuzzProgram struct {
	genSeed int64
	src     string
	ref     ref
}

type fuzzWorkload struct {
	progs []fuzzProgram
	rng   *rand.Rand
	opts  difftest.Options
}

// setupFuzz generates the catalogue and runs each program's reference
// interpretation, excluding programs that exhaust the step budget (the
// oracle would skip them). The seed orders the ops of every round.
func setupFuzz(seed int64) (*fuzzWorkload, error) {
	w := &fuzzWorkload{rng: rand.New(rand.NewSource(seed)), opts: difftest.DefaultOptions()}
	gcfg := difftest.DefaultGenConfig()
	for s := int64(1); len(w.progs) < fuzzCatalogue; s++ {
		if s > 10*fuzzCatalogue {
			return nil, fmt.Errorf("only %d of %d generated programs finish within %d steps", len(w.progs), s-1, fuzzStepLimit)
		}
		src := difftest.NewGenerator(s, gcfg).Program()
		mod, err := difftest.Frontend(src)
		if err != nil {
			return nil, fmt.Errorf("generator seed %d: %v", s, err)
		}
		m := interp.New(mod)
		m.SetStepLimit(fuzzStepLimit)
		res, err := m.Run()
		if trap.KindOf(err) == trap.KindStepLimit {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("generator seed %d: reference run: %v", s, err)
		}
		w.progs = append(w.progs, fuzzProgram{genSeed: s, src: src, ref: ref{Ret: res.Ret, Output: res.Output}})
	}
	return w, nil
}

// fuzzCase mirrors one column of difftest.Check's scheme matrix under
// DefaultOptions; timed cases also run on both machines.
type fuzzCase struct {
	name  string
	opts  codegen.Options
	timed bool
}

func fuzzCases() []fuzzCase {
	return []fuzzCase{
		{"none", codegen.Options{Scheme: codegen.SchemeNone}, false},
		{"basic", codegen.Options{Scheme: codegen.SchemeBasic}, true},
		{"advanced", codegen.Options{Scheme: codegen.SchemeAdvanced}, true},
		{"balanced", codegen.Options{Scheme: codegen.SchemeBalanced, MaxFPaFraction: 0.3}, true},
		{"optimal", codegen.Options{Scheme: codegen.SchemeOptimal}, true},
		{"advanced+interproc", codegen.Options{Scheme: codegen.SchemeAdvanced, InterprocFPArgs: true}, false},
		{"basic+analysis", codegen.Options{Scheme: codegen.SchemeBasic, Analysis: true}, true},
		{"advanced+analysis", codegen.Options{Scheme: codegen.SchemeAdvanced, Analysis: true}, false},
	}
}

// fuzzTraced replays difftest.Check as its public calls: the frontend and
// reference run, then per scheme case a compile, the partition verifier,
// a functional run, and on timed cases a fresh machine per Table 1
// configuration. It returns the accepted profit per case and function for
// the dominance check.
func fuzzTraced(tr *tracer, p fuzzProgram) (map[string]map[string]float64, error) {
	op := tr.newOp()
	root := tr.begin(op, 0, spanOp)
	defer tr.end(root)
	mod, refRun, err := frontendTraced(tr, op, root, p.src, fuzzStepLimit)
	if err != nil {
		return nil, err
	}
	analysisNS := analysisProbe(tr, op, root, mod)
	profits := map[string]map[string]float64{}
	for _, c := range fuzzCases() {
		opts := c.opts
		opts.Profile = refRun.Profile
		res, err := compileTraced(tr, op, root, mod, opts, analysisNS, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.name, err)
		}
		id := tr.begin(op, root, spanVerify)
		err = verifyPartitions(res)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.name, err)
		}
		profits[c.name] = acceptedProfits(res)
		out, err := functionalTraced(tr, op, root, res.Prog, 8*fuzzStepLimit, false)
		if err != nil {
			return nil, fmt.Errorf("%s: functional run: %v", c.name, err)
		}
		if err := checkRef(c.name, p.ref, out.Ret, out.Output); err != nil {
			return nil, err
		}
		if !c.timed {
			continue
		}
		for _, cfg := range machines() {
			alloc := tr.allocMeter()
			id := tr.begin(op, root, spanSetup)
			m := uarch.NewMachine(cfg)
			tr.end(id)
			name := spanDetailed + cfgKey(cfg)
			id = tr.begin(op, root, name)
			tout, st, err := m.Run(res.Prog)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %v", c.name, cfg.Name, err)
			}
			alloc(cntTimingAlloc, cntTimingRuns)
			tr.count(cntInstsOf+name, float64(tout.Stats.Total))
			if err := checkRef(c.name+" "+cfg.Name, p.ref, tout.Ret, tout.Output); err != nil {
				return nil, err
			}
			if err := checkLedger(c.name+" "+cfg.Name, &st, tout); err != nil {
				return nil, err
			}
		}
	}
	return profits, nil
}

// acceptedProfits sums each function's accepted component profit.
func acceptedProfits(res *codegen.Result) map[string]float64 {
	out := map[string]float64{}
	for fn, p := range res.Partitions {
		if p == nil || p.Audit == nil {
			continue
		}
		for _, d := range p.Audit.Components {
			if d.Accepted {
				out[fn] += d.Profit
			}
		}
	}
	return out
}

// checkDominance checks optimal ≥ advanced ≥ basic accepted profit per
// function, with the oracle's own float tolerance.
func checkDominance(profits map[string]map[string]float64) error {
	chain := []string{"basic", "advanced", "optimal"}
	for i := 1; i < len(chain); i++ {
		lo, hi := profits[chain[i-1]], profits[chain[i]]
		for fn, lp := range lo {
			hp, ok := hi[fn]
			if !ok {
				continue
			}
			if hp+1e-6+1e-9*math.Abs(lp) < lp {
				return fmt.Errorf("%s: %s profit %g below %s %g", fn, chain[i], hp, chain[i-1], lp)
			}
		}
	}
	return nil
}

// round checks every catalogue program once, in a seeded order.
func (w *fuzzWorkload) round(l *loop, tr *tracer, _ int) {
	for _, i := range w.rng.Perm(len(w.progs)) {
		p := w.progs[i]
		start := time.Now()
		var err error
		var profits map[string]map[string]float64
		if tr != nil {
			profits, err = fuzzTraced(tr, p)
		} else {
			err = difftest.Check(p.src, w.opts)
		}
		d := time.Since(start) - tr.takeExtra()
		switch {
		case errors.Is(err, difftest.ErrSkip):
			l.fail("oracle skipped")
			l.wrong("generator seed %d: skipped by the oracle although its reference run finished", p.genSeed)
		case err != nil:
			l.fail("oracle mismatch")
			l.wrong("generator seed %d: %v", p.genSeed, err)
		default:
			l.ok(d)
			if profits != nil {
				if err := checkDominance(profits); err != nil {
					l.wrong("generator seed %d: %v", p.genSeed, err)
				}
			}
		}
	}
}
