package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loop collects the outcome of every operation of one timed phase. It is
// shared by the callers of a closed loop, so every method locks.
type loop struct {
	mu        sync.Mutex
	latMS     []float64 // latency of each successful op
	busy      time.Duration
	attempted int
	failed    int
	problems  []string // wrong outputs; any entry makes the run incorrect
	failures  map[string]int
}

// ok records one successful op.
func (l *loop) ok(d time.Duration) {
	l.mu.Lock()
	l.attempted++
	l.busy += d
	l.latMS = append(l.latMS, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// fail records one failed op under a reason; failed ops count toward
// attempted but not toward throughput or latency.
func (l *loop) fail(reason string) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if l.failures == nil {
		l.failures = map[string]int{}
	}
	l.failures[reason]++
	l.mu.Unlock()
}

// wrong records an output that failed a correctness check.
func (l *loop) wrong(format string, args ...any) {
	l.mu.Lock()
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// okCount is the number of successful ops.
func (l *loop) okCount() int { return l.attempted - l.failed }

// runRounds calls round with 0, 1, 2, ... until budget has elapsed, always
// finishing the round in progress, so every run attempts whole rounds of
// the same operations.
func runRounds(budget time.Duration, round func(r int)) {
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		round(r)
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail is the highest of a fixed ladder of percentiles that still has at
// least ten samples above it. With fewer than forty samples there is no
// tail worth the name and the median is reported.
type tail struct {
	Pct     float64
	ValueMS float64
	Samples int
	Beyond  int
}

func tailOf(latMS []float64) tail {
	t := tail{Pct: 50, ValueMS: median(latMS), Samples: len(latMS)}
	if len(latMS) < 40 {
		return t
	}
	s := append([]float64(nil), latMS...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		v := quantile(s, p/100)
		beyond := len(s) - sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1)))
		if beyond >= 10 {
			return tail{Pct: p, ValueMS: v, Samples: len(s), Beyond: beyond}
		}
	}
	return t
}

func (t tail) String() string {
	return fmt.Sprintf("op_ms_tail: p%g = %.3f ms over %d successful ops (%d beyond)", t.Pct, t.ValueMS, t.Samples, t.Beyond)
}

// memSampler samples the process's resident memory every interval until
// stopped.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func startMemSampler(interval time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			m.samples = append(m.samples, residentMiB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler, waits for it, and returns the median sample.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.samples)
}

var pageSize = float64(os.Getpagesize())

// residentMiB reads the resident set size from /proc/self/statm; where
// that file does not exist it falls back to the memory the Go runtime has
// mapped and not returned to the OS.
func residentMiB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		f := strings.Fields(string(b))
		if len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * pageSize / (1 << 20)
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// runtimeSnap is a point-in-time reading of the Go runtime's allocation
// and CPU counters.
type runtimeSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// settle collects garbage left by set-up so every timed phase starts from
// the same heap.
func settle() {
	runtime.GC()
	runtime.GC()
}
