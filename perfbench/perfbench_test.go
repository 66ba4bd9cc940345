package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/difftest"
	"fpint/internal/service"
)

// TestMain runs the tests from the repository root, where the benchmark
// finds testdata/ and BENCHMARK.json.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	m.Run() // the testing package exits with its status
}

// TestNativeRefsAgreeWithInterpreter cross-checks the Go-native testdata
// references against the IR interpreter on unoptimised IR: two
// computations made apart from each other and from the compiler.
func TestNativeRefsAgreeWithInterpreter(t *testing.T) {
	progs, err := loadTestdata()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		got, err := interpRef(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got != p.Ref {
			t.Errorf("%s: interpreter %+v, Go-native reference %+v", p.Name, got, p.Ref)
		}
	}
}

// TestPlantedFlipIsReported plants a partition that moves an integer node
// to FPa without its mandated copy: the fuzz workload must report the
// oracle's mismatch, and the compile workload's verifier call must refuse
// the partition.
func TestPlantedFlipIsReported(t *testing.T) {
	w, err := setupFuzz(1)
	if err != nil {
		t.Fatal(err)
	}
	w.progs = w.progs[:6]
	w.opts.PartitionHook = difftest.InjectFlip
	l := &loop{}
	w.round(l, nil, 0)
	if len(l.problems) == 0 {
		t.Fatal("fuzz round with a flipped partition reported no wrong result")
	}

	td, err := loadTestdata()
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, p := range td {
		mod, prof, err := codegen.FrontendPipeline(p.Src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := codegen.Compile(mod, codegen.Options{Scheme: codegen.SchemeBasic, Profile: prof, PartitionHook: difftest.InjectFlip})
		if err != nil {
			continue // codegen itself refused the flipped partition
		}
		if verifyPartitions(res) != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("the partition verifier accepted every flipped partition")
	}
}

// TestCorruptedReferenceIsReported corrupts one reference exit value and
// expects the simulate, compile and serve checks to report it.
func TestCorruptedReferenceIsReported(t *testing.T) {
	sw, err := setupSimulate(1)
	if err != nil {
		t.Fatal(err)
	}
	sw.specs = sw.specs[:1]
	sw.specs[0].prog.Ref.Ret++
	l := &loop{}
	sw.round(l, nil, 0)
	if len(l.problems) == 0 {
		t.Error("simulate: corrupted reference not reported")
	}

	cw, err := setupCompile(1)
	if err != nil {
		t.Fatal(err)
	}
	cw.sources = cw.sources[len(cw.sources)-1:]
	cw.sources[0].Ref.Ret++
	l = &loop{}
	cw.round(l, nil, 0)
	cw.checkRuns(l)
	if len(l.problems) == 0 {
		t.Error("compile: corrupted reference not reported")
	}

	vw, err := setupServe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer vw.close()
	for i := range vw.progs {
		vw.progs[i].Ref.Ret++
	}
	l = &loop{}
	vw.round(l, nil, 0)
	if !strings.Contains(strings.Join(l.problems, "\n"), "reference") {
		t.Errorf("serve: corrupted reference not reported; problems: %q", l.problems)
	}
}

// TestTamperedCachedResponseIsReported feeds the serve check a cached
// response whose body differs from the first one served for its key.
func TestTamperedCachedResponseIsReported(t *testing.T) {
	w := &serveWorkload{computedBodies: map[string]map[[32]byte]bool{}, cachedBodies: map[string][][32]byte{}}
	q := &serveReq{path: "/v1/partition"}
	body := func(cached bool, scheme string) ([]byte, *service.Response) {
		r := &service.Response{Schema: service.ResponseSchema, Kind: "partition", Key: "k1", Cached: cached, Class: "none",
			Partition: &service.PartitionReport{Scheme: scheme}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b, r
	}
	l := &loop{}
	b, r := body(false, "basic")
	w.check(l, q, r, b)
	b, r = body(true, "basic")
	w.check(l, q, r, b)
	w.checkCache(l)
	if len(l.problems) != 0 {
		t.Fatalf("identical cached response reported: %q", l.problems)
	}
	b, r = body(true, "advanced")
	w.check(l, q, r, b)
	w.checkCache(l)
	if len(l.problems) == 0 {
		t.Fatal("tampered cached response not reported")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs); got.Pct != 90 || got.Beyond != 10 {
		t.Errorf("100 samples: tail %+v, want p90 with 10 beyond", got)
	}
	if got := tailOf(xs[:39]); got.Pct != 50 {
		t.Errorf("39 samples: tail %+v, want the median", got)
	}
}

// TestSmoke runs a few ops of every workload, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about 20 s")
	}
	if err := runSmoke(t.TempDir(), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestExtraTimeIsTaken checks that work a replay adds to an op is handed
// to the op's clock once, and that a nil tracer adds none.
func TestExtraTimeIsTaken(t *testing.T) {
	tr := newTracer(true)
	id := tr.begin(tr.newOp(), 0, "analysis.probe")
	time.Sleep(time.Millisecond)
	d := tr.endExtra(id)
	if got := tr.takeExtra(); got != d || d < time.Millisecond {
		t.Errorf("takeExtra = %v, probe span %v", got, d)
	}
	if got := tr.takeExtra(); got != 0 {
		t.Errorf("second takeExtra = %v, want 0", got)
	}
	var none *tracer
	if got := none.takeExtra(); got != 0 {
		t.Errorf("nil tracer: takeExtra = %v", got)
	}
}
