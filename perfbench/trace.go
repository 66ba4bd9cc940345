package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpint/internal/obs"
)

// Span names. Each is the layer whose public function the span wraps; the
// uarch and service names are built from the registry prefixes like every
// other metric name in the repository.
var (
	spanOp        = "op"
	spanParse     = "lang.parse_check"
	spanLower     = "irgen.lower"
	spanOpt       = "opt.optimize"
	spanInterp    = "interp.profile"
	spanAnalysis  = "analysis.analyze"
	spanCompile   = "codegen.compile"
	spanSelect    = "codegen.select"
	spanRegalloc  = "codegen.regalloc"
	spanPartition = "core.partition"
	spanOracle    = "core.oracle"
	spanVerify    = "core.verify"
	spanSim       = "sim.run"
	spanSetup     = obs.PrefixUarch + "setup"
	spanDetailed  = obs.PrefixUarch + "detailed."
	spanSampled   = obs.PrefixUarch + "sampled."
	spanRequest   = obs.PrefixService + "request"
)

// span is one timed call into a layer. Derived spans were not timed by the
// benchmark: their duration comes from a record the program produced
// (codegen's pass log), laid out back to back inside their parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps every span of a run in memory; write saves them when the
// run ends. A nil tracer records nothing, so untraced code paths share the
// traced ones.
type tracer struct {
	// allocs is false where other goroutines allocate concurrently with a
	// replay, so the heap's allocation counter cannot be charged to it.
	allocs bool

	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
	nextOp int
	// extra is the time spent since the last takeExtra in work the
	// replay adds to an op and the untraced op does not do (a probe, a
	// separate functional pass); the op's clock leaves it out.
	extra time.Duration
}

func newTracer(allocs bool) *tracer {
	return &tracer{allocs: allocs, t0: time.Now(), counts: map[string]float64{}}
}

// newOp allocates an op ID.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// endExtra closes span id, which wraps work the untraced op does not
// do, and adds its duration to the time the op's clock leaves out.
func (t *tracer) endExtra(id int) time.Duration {
	d := t.end(id)
	if t != nil {
		t.mu.Lock()
		t.extra += d
		t.mu.Unlock()
	}
	return d
}

// takeExtra returns the extra time recorded since the last call and
// resets it. Only single-caller workloads use it, so the time belongs to
// the op that just ended.
func (t *tracer) takeExtra() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.extra
	t.extra = 0
	return d
}

// derived adds a child span of parent lasting nanos, starting at *at, and
// advances *at past it.
func (t *tracer) derived(parent int, name string, at *int64, nanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Name: name, Start: *at, End: *at + nanos, Derived: true})
	*at += nanos
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTimes derives each span name's total self time in nanoseconds (a
// span's duration minus the part of it its children cover) and the number
// of spans of each name.
func (t *tracer) selfTimes() (self, n map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, n = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		n[s.Name]++
		d := s.End - s.Start - child[s.ID]
		if d < 0 {
			d = 0 // a derived child estimated longer than its parent
		}
		self[s.Name] += float64(d)
	}
	return self, n
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocMeter starts measuring heap allocation; calling the returned
// function adds the bytes allocated since to the bytes counter and one run
// to the runs counter. Where allocations are not attributable it does
// nothing.
func (t *tracer) allocMeter() func(bytes, runs string) {
	if t == nil || !t.allocs {
		return func(string, string) {}
	}
	before := readRuntime()
	return func(bytes, runs string) {
		t.count(bytes, float64(readRuntime().allocBytes-before.allocBytes))
		t.count(runs, 1)
	}
}
