package main

import (
	"fmt"
	"math/rand"
	"time"

	"fpint/internal/bench"
	"fpint/internal/codegen"
	"fpint/internal/core"
	"fpint/internal/interp"
	"fpint/internal/sim"
)

// compileCase is one fpic invocation on an already-parsed source.
type compileCase struct {
	scheme   codegen.Scheme
	analysis bool
}

func (c compileCase) String() string {
	if c.analysis {
		return c.scheme.String() + "+analysis"
	}
	return c.scheme.String()
}

// compileCases are the schemes fpic accepts, the greedy ones and the
// exact oracle, with analysis off and on.
func compileCases() []compileCase {
	var cs []compileCase
	for _, s := range []codegen.Scheme{codegen.SchemeNone, codegen.SchemeBasic, codegen.SchemeAdvanced, codegen.SchemeBalanced, codegen.SchemeOptimal} {
		cs = append(cs, compileCase{s, false}, compileCase{s, true})
	}
	return cs
}

type compileWorkload struct {
	sources []program
	cases   []compileCase
	rng     *rand.Rand
	// checkCase is, per source, the case whose program is run after the
	// timed phase (every case for the small testdata programs).
	checkCase map[string][]int
	compiled  map[string]*codegen.Result // "source/case" → latest result
}

// setupCompile loads the suite and testdata sources with their references:
// Go-native results for testdata, the IR interpreter's for the suite.
func setupCompile(seed int64) (*compileWorkload, error) {
	w := &compileWorkload{cases: compileCases(), rng: rand.New(rand.NewSource(seed)),
		checkCase: map[string][]int{}, compiled: map[string]*codegen.Result{}}
	for _, bw := range bench.Workloads() {
		r, err := interpRef(bw.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %v", bw.Name, err)
		}
		w.sources = append(w.sources, program{Name: bw.Name, Src: bw.Src, Ref: r})
		w.checkCase[bw.Name] = []int{w.rng.Intn(len(w.cases))}
	}
	td, err := loadTestdata()
	if err != nil {
		return nil, err
	}
	for _, p := range td {
		w.sources = append(w.sources, p)
		for i := range w.cases {
			w.checkCase[p.Name] = append(w.checkCase[p.Name], i)
		}
	}
	return w, nil
}

func (w *compileWorkload) options(c compileCase, prof *interp.Profile) codegen.Options {
	return codegen.Options{Scheme: c.scheme, Analysis: c.analysis, Profile: prof, Cost: fpicCost}
}

// compileOp is what fpic does for one source under every case: the
// frontend with its self-profile run once, then the backend per case.
func (w *compileWorkload) compileOp(src string) ([]*codegen.Result, error) {
	mod, prof, err := codegen.FrontendPipeline(src)
	if err != nil {
		return nil, err
	}
	out := make([]*codegen.Result, len(w.cases))
	for i, c := range w.cases {
		if out[i], err = codegen.CompileWithFallback(mod, w.options(c, prof)); err != nil {
			return nil, fmt.Errorf("%s: %v", c, err)
		}
	}
	return out, nil
}

// compileTracedOp replays compileOp as its public calls.
func (w *compileWorkload) compileTracedOp(tr *tracer, src string) ([]*codegen.Result, error) {
	op := tr.newOp()
	root := tr.begin(op, 0, spanOp)
	defer tr.end(root)
	mod, prof, err := frontendTraced(tr, op, root, src, 0)
	if err != nil {
		return nil, err
	}
	analysisNS := analysisProbe(tr, op, root, mod)
	out := make([]*codegen.Result, len(w.cases))
	for i, c := range w.cases {
		if out[i], err = compileTraced(tr, op, root, mod, w.options(c, prof.Profile), analysisNS, true); err != nil {
			return nil, fmt.Errorf("%s: %v", c, err)
		}
	}
	return out, nil
}

// round compiles every source once, in a seeded order.
func (w *compileWorkload) round(l *loop, tr *tracer, _ int) {
	for _, i := range w.rng.Perm(len(w.sources)) {
		p := w.sources[i]
		start := time.Now()
		var res []*codegen.Result
		var err error
		if tr != nil {
			res, err = w.compileTracedOp(tr, p.Src)
		} else {
			res, err = w.compileOp(p.Src)
		}
		d := time.Since(start) - tr.takeExtra()
		if err != nil {
			l.fail("compile error")
			l.wrong("%s: %v", p.Name, err)
			continue
		}
		l.ok(d)
		for ci, r := range res {
			if err := verifyPartitions(r); err != nil {
				l.wrong("%s/%s: %v", p.Name, w.cases[ci], err)
			}
		}
		for _, ci := range w.checkCase[p.Name] {
			w.compiled[p.Name+"/"+w.cases[ci].String()] = res[ci]
		}
	}
}

// verifyPartitions runs the static partition verifier on every function.
// A degraded compile is verified like any other: it must be sound.
func verifyPartitions(r *codegen.Result) error {
	for fn, p := range r.Partitions {
		if p == nil {
			continue
		}
		if err := core.VerifyPartition(p); err != nil {
			return fmt.Errorf("%s: %v", fn, err)
		}
	}
	return nil
}

// checkRuns runs the compiled programs kept from the timed phase on the
// functional simulator and compares them with the references.
func (w *compileWorkload) checkRuns(l *loop) {
	for _, p := range w.sources {
		for _, ci := range w.checkCase[p.Name] {
			key := p.Name + "/" + w.cases[ci].String()
			r := w.compiled[key]
			if r == nil {
				continue
			}
			out, err := sim.New(r.Prog).Run()
			if err != nil {
				l.wrong("%s: functional run: %v", key, err)
				continue
			}
			if err := checkRef(key, p.Ref, out.Ret, out.Output); err != nil {
				l.wrong("%v", err)
			}
		}
	}
}
