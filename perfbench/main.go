// Command perfbench is the repository's benchmark. It drives the toolchain
// through the public entry points its commands use (fpisim, fpic, fpifuzz,
// fpintd), checks every output against references computed apart from the
// program, and prints the run's metrics as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload simulate --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --smoke
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics. See
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fpint/internal/fperr"
)

func main() {
	err := perfbenchMain(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

// workload is one named benchmark workload after set-up.
type workload interface {
	// round attempts one whole round of the workload's ops; r numbers the
	// rounds of a run from 0.
	round(l *loop, tr *tracer, r int)
	// after runs the checks that follow a timed phase and adds the
	// workload's own per-layer figures to m. tr is the traced phase's
	// tracer, nil after an untraced phase.
	after(l *loop, tr *tracer, m map[string]float64)
	// concurrent reports whether ops overlap, so throughput is counted
	// over wall time rather than over the single caller's busy time.
	concurrent() bool
	close()
}

// workloads maps each name to its set-up. smoke shrinks the op mix to a
// few ops for the self-test.
var workloads = map[string]func(seed int64, smoke bool) (workload, error){
	"simulate": func(seed int64, smoke bool) (workload, error) {
		w, err := setupSimulate(seed)
		if err == nil && smoke {
			w.specs = w.specs[:8]
		}
		return w, err
	},
	"compile": func(seed int64, smoke bool) (workload, error) {
		w, err := setupCompile(seed)
		if err == nil && smoke {
			w.sources = w.sources[len(w.sources)-3:]
		}
		return w, err
	},
	"fuzz": func(seed int64, smoke bool) (workload, error) {
		w, err := setupFuzz(seed)
		if err == nil && smoke {
			w.progs = w.progs[:3]
		}
		return w, err
	},
	"serve": func(seed int64, smoke bool) (workload, error) {
		w, err := setupServe(seed)
		return w, err
	},
}

// A run sets its workload up at least setupMinRepeats times and until the
// set-ups have taken setupMinTotal, at most setupMaxRepeats times; setup_s
// is the median, and the last set-up is the one measured. Set-up times of
// one process spread by a fifth from one repeat to the next, so short
// set-ups are repeated more.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupMinTotal   = 2 * time.Second
)

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func perfbenchMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: simulate, compile, fuzz or serve")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = fs.Float64("seconds", 15, "how long the timed phase runs (whole rounds)")
		trace   = fs.Int("trace", 0, "1: alternate untraced and traced rounds and print per-layer metrics")
		smoke   = fs.Bool("smoke", false, "run a few ops of every workload, traced and untraced, and check their outputs")
	)
	if err := fs.Parse(args); err != nil {
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if *smoke {
		return runSmoke(filepath.Join(".bench_build", "perfbench", "smoke"), stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok {
		return fperr.New(fperr.ClassUsage, "unknown workload %q (want simulate, compile, fuzz or serve)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fperr.New(fperr.ClassUsage, "--seconds must be positive and --trace 0 or 1")
	}
	spanPath := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	res, err := runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, spanPath, stderr)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runWorkload sets the workload up repeatedly (once for a smoke run),
// runs its timed phase (or, traced, alternating untraced and traced
// rounds) and assembles the result.
func runWorkload(name string, seed int64, budget time.Duration, traced, smoke bool, spanPath string, log io.Writer) (*result, error) {
	var w workload
	var setups []float64
	var total time.Duration
	for len(setups) == 0 || !smoke && (len(setups) < setupMinRepeats || total < setupMinTotal && len(setups) < setupMaxRepeats) {
		if w != nil {
			w.close()
		}
		settle()
		start := time.Now()
		var err error
		if w, err = workloads[name](seed, smoke); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		d := time.Since(start)
		total += d
		setups = append(setups, d.Seconds())
	}
	defer w.close()
	fmt.Fprintf(log, "setup_s: median of %d set-ups, %.3f to %.3f s\n", len(setups), quantile(setups, 0), quantile(setups, 1))

	res := &result{Metrics: map[string]metric{}}
	layers := map[string]float64{}
	var l *loop
	if !traced {
		p := runPhase(w, budget)
		w.after(p.l, nil, layers)
		l = p.l
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{p.opsPerSec(w), "1/s"}
		res.Metrics["op_ms_p50"] = metric{median(p.l.latMS), "ms"}
		res.Metrics["mem_mib_p50"] = metric{p.memMiB, "MiB"}
		fmt.Fprintln(log, tailOf(p.l.latMS))
	} else {
		tr := newTracer(!w.concurrent())
		plain, tp := runTraced(w, budget, tr)
		w.after(plain.l, nil, layers)
		w.after(tp.l, tr, layers)
		l = merge(plain.l, tp.l)
		t := tailOf(plain.l.latMS)
		fmt.Fprintln(log, t)
		layers["op_ms_tail"] = t.ValueMS
		layers["runtime.alloc_mib_per_op"] = float64(plain.allocBytes) / (1 << 20) / math.Max(1, float64(plain.l.attempted))
		layers["runtime.gc_cpu_frac"] = plain.gcFrac()
		layers["trace.overhead_pct"] = 100 * (tp.secPerOp(w)/plain.secPerOp(w) - 1)
		tracedLayers(tr, tp, layers)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{finite(layers[d.name]), d.unit}
		}
		if err := tr.write(spanPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = len(l.problems) == 0 && l.attempted > 0
	for _, p := range l.problems {
		fmt.Fprintf(log, "perfbench: %s: wrong: %s\n", name, p)
	}
	reasons := make([]string, 0, len(l.failures))
	for r := range l.failures {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(log, "perfbench: %s: %d of %d ops failed: %s\n", name, l.failures[r], l.attempted, r)
	}
	return res, nil
}

// phase is one timed phase's measurements: its ops, its rounds' wall
// time, and how the runtime's counters moved over those rounds.
type phase struct {
	l          *loop
	wall       time.Duration
	rounds     int
	memMiB     float64
	allocBytes uint64
	gcCPU, cpu float64
}

// round runs round r of the workload as part of the phase.
func (p *phase) round(w workload, tr *tracer, r int) {
	before := readRuntime()
	start := time.Now()
	w.round(p.l, tr, r)
	p.wall += time.Since(start)
	p.rounds++
	after := readRuntime()
	p.allocBytes += after.allocBytes - before.allocBytes
	p.gcCPU += after.gcCPU - before.gcCPU
	p.cpu += after.totalCPU - before.totalCPU
}

// gcFrac is the share of the phase's CPU time the garbage collector took.
func (p phase) gcFrac() float64 {
	if p.cpu <= 0 {
		return 0
	}
	return p.gcCPU / p.cpu
}

// runPhase runs whole rounds for budget, sampling the resident memory.
func runPhase(w workload, budget time.Duration) phase {
	settle()
	p := phase{l: &loop{}}
	mem := startMemSampler(20 * time.Millisecond)
	runRounds(budget, func(r int) { p.round(w, nil, r) })
	p.memMiB = mem.finish()
	return p
}

// runTraced alternates untraced and traced rounds for budget, always
// finishing a pair, so a drift in the host's speed falls on both phases
// alike.
func runTraced(w workload, budget time.Duration, tr *tracer) (plain, traced phase) {
	settle()
	plain.l, traced.l = &loop{}, &loop{}
	runRounds(budget, func(r int) {
		plain.round(w, nil, 2*r)
		traced.round(w, tr, 2*r+1)
	})
	return plain, traced
}

// opsPerSec is successful ops per second: over wall time for concurrent
// callers, over the single caller's busy time otherwise (the benchmark's
// own checks between ops are not the program's work).
func (p phase) opsPerSec(w workload) float64 {
	d := p.l.busy
	if w.concurrent() {
		d = p.wall
	}
	if d <= 0 {
		return 0
	}
	return float64(p.l.okCount()) / d.Seconds()
}

// secPerOp is the inverse of opsPerSec.
func (p phase) secPerOp(w workload) float64 {
	if r := p.opsPerSec(w); r > 0 {
		return 1 / r
	}
	return math.NaN()
}

// merge combines two phases' op outcomes.
func merge(a, b *loop) *loop {
	m := &loop{attempted: a.attempted + b.attempted, failed: a.failed + b.failed,
		problems: append(append([]string(nil), a.problems...), b.problems...), failures: map[string]int{}}
	for _, l := range []*loop{a, b} {
		for k, v := range l.failures {
			m.failures[k] += v
		}
	}
	return m
}

// finite maps a quotient with no samples behind it to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// runSmoke runs a few ops of every workload, untraced and traced, writing
// the spans under dir, and fails unless every run is correct. Serve's
// known refusals are the only failures a correct run may have.
func runSmoke(dir string, stdout, stderr io.Writer) error {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(n, 1, time.Millisecond, traced, true, filepath.Join(dir, n+".jsonl"), stderr)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "smoke %-8s traced=%-5v correct=%v attempted=%d failed=%d\n", n, traced, res.Correct, res.Attempted, res.Failed)
			if !res.Correct {
				return fmt.Errorf("smoke: %s produced wrong results", n)
			}
		}
	}
	return nil
}
