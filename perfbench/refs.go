package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fpint/internal/interp"
	"fpint/internal/irgen"
	"fpint/internal/lang"
)

// ref is the expected outcome of running a program: main's return value
// and its printed output.
type ref struct {
	Ret    int64
	Output string
}

// nativeRefs computes the expected results of the testdata programs in Go,
// apart from every engine of the program under test. Each function mirrors
// the C source of the same name; the programs print nothing.
var nativeRefs = map[string]func() int64{
	"sieve.c":    refSieve,
	"matmul.c":   refMatmul,
	"bitcount.c": refBitcount,
	"sort.c":     refSort,
	"mandel.c":   refMandel,
	"fpblend.c":  refFpblend,
}

// refSieve counts the primes below 2000.
func refSieve() int64 {
	var composite [2000]bool
	count := int64(0)
	for i := 2; i < 2000; i++ {
		if !composite[i] {
			count++
			for j := i + i; j < 2000; j += i {
				composite[j] = true
			}
		}
	}
	return count
}

// refMatmul is the checksum of a 16×16 integer matrix product.
func refMatmul() int64 {
	var a, b, c [256]int64
	for i := int64(0); i < 256; i++ {
		a[i] = (i * 7) % 31
		b[i] = (i * 5) % 29
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			s := int64(0)
			for k := 0; k < 16; k++ {
				s += a[i*16+k] * b[k*16+j]
			}
			c[i*16+j] = s
		}
	}
	check := int64(0)
	for i := 0; i < 256; i++ {
		check = (check*31 + c[i]) & 16777215
	}
	return check
}

// refBitcount is the total population count of 128 pseudo-random words.
func refBitcount() int64 {
	seed := int64(321)
	rnd := func() int64 {
		seed = seed*1103515245 + 12345
		return (seed >> 16) & 32767
	}
	total := int64(0)
	for i := 0; i < 128; i++ {
		hi := rnd()
		w := hi*65536 + rnd()
		for b := 0; b < 63; b++ {
			total += (w >> b) & 1
		}
	}
	return total
}

// refSort sorts 300 pseudo-random values and counts binary-search hits.
func refSort() int64 {
	seed := int64(99)
	rnd := func() int64 {
		seed = seed*69069 + 7
		return (seed >> 16) & 4095
	}
	v := make([]int64, 300)
	for i := range v {
		v[i] = rnd()
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	found := int64(0)
	for probe := 0; probe < 64; probe++ {
		want := v[(probe*37)%300]
		if i := sort.Search(len(v), func(i int) bool { return v[i] >= want }); v[i] == want {
			found++
		}
	}
	return found*1000 + v[150]
}

// refMandel sums fixed-point Mandelbrot iteration counts over an 8×8 grid.
func refMandel() int64 {
	total := int64(0)
	for p := int64(0); p < 64; p++ {
		cx := (p%8)*96 - 512
		cy := (p/8)*96 - 384
		x, y := int64(0), int64(0)
		it := int64(0)
		for it < 48 {
			x2 := (x * x) >> 8
			y2 := (y * y) >> 8
			if x2+y2 > 1024 {
				break
			}
			xy := (x * y) >> 8
			x = x2 - y2 + cx
			y = xy + xy + cy
			it++
		}
		total += it
	}
	return total
}

// refFpblend accumulates signal energy and hashes a four-bucket histogram.
// Every float product is converted explicitly so no multiply-add is fused.
func refFpblend() int64 {
	var signal [512]float64
	for i := range signal {
		signal[i] = float64(float64((i*37)%100)*0.02) - 1.0
	}
	var hist [8]int64
	acc := 0.0
	for _, s := range signal {
		acc += float64(s * s)
		bucket := 0
		switch {
		case s > 0.5:
			bucket = 3
		case s > 0.0:
			bucket = 2
		case s > -0.5:
			bucket = 1
		}
		hist[bucket]++
	}
	r := int64(float64(acc * 100.0))
	for b := 0; b < 8; b++ {
		r = (r*31 + hist[b]) & 16777215
	}
	return r
}

// program is one source the workloads feed to the toolchain, with its
// independently computed expected result.
type program struct {
	Name string
	Src  string
	Ref  ref
}

// loadTestdata reads testdata/*.c from the checkout root and attaches each
// program's Go-native reference.
func loadTestdata() ([]program, error) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.c"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no testdata/*.c under %s: run from the repository root", mustGetwd())
	}
	var out []program
	for _, f := range files {
		name := filepath.Base(f)
		fn, ok := nativeRefs[name]
		if !ok {
			return nil, fmt.Errorf("%s has no Go-native reference in the benchmark", f)
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, program{Name: name, Src: string(src), Ref: ref{Ret: fn()}})
	}
	return out, nil
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

// interpRef computes a program's reference result with the IR interpreter
// on the unoptimised IR, so no optimiser or backend pass stands between
// the source and the reference.
func interpRef(src string) (ref, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return ref{}, err
	}
	if err := lang.Check(prog); err != nil {
		return ref{}, err
	}
	mod, err := irgen.Lower(prog)
	if err != nil {
		return ref{}, err
	}
	res, err := interp.New(mod).Run()
	if err != nil {
		return ref{}, err
	}
	return ref{Ret: res.Ret, Output: res.Output}, nil
}

// checkRef compares an engine's outcome with the reference.
func checkRef(what string, want ref, ret int64, output string) error {
	if ret != want.Ret {
		return fmt.Errorf("%s: exit %d, reference %d", what, ret, want.Ret)
	}
	if output != want.Output {
		return fmt.Errorf("%s: output %q, reference %q", what, clip(output), clip(want.Output))
	}
	return nil
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:60] + "…"
	}
	return strings.TrimSpace(s)
}
