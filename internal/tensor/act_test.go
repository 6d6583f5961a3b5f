package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// math.Exp(0.375) on the two paths of Go's amd64 math.Exp: exp64
// transcribes the FMA one, and the other rounds this input one ulp lower.
const (
	expProbeFMA   = 0x3ff747a513dbef6b
	expProbeNoFMA = 0x3ff747a513dbef6a
)

// requireFMAMathExp skips the test unless math.Exp runs the path exp64
// transcribes. It does not under GODEBUG=cpu.fma=off, on CPUs without FMA,
// or off amd64 (GOARCH=386 computes math.Exp in Go, which rounds like the
// non-FMA path). Any value that matches neither path is a failure.
func requireFMAMathExp(t *testing.T) {
	t.Helper()
	switch got := math.Float64bits(math.Exp(0.375)); got {
	case expProbeFMA:
	case expProbeNoFMA:
		t.Skip("math.Exp takes its non-FMA path here; exp64 is pinned to the FMA path")
	default:
		t.Fatalf("math.Exp(0.375) = %#x, neither %#x (FMA) nor %#x (non-FMA)", got, uint64(expProbeFMA), uint64(expProbeNoFMA))
	}
}

// bitMatcher counts float64 inputs and the ones whose two results differ
// in any bit, reporting the first few.
type bitMatcher struct {
	t      *testing.T
	name   string
	n, bad int
}

func (m *bitMatcher) check(x, got, want float64) {
	m.n++
	if math.Float64bits(got) == math.Float64bits(want) {
		return
	}
	if m.bad < 10 {
		m.t.Errorf("%s(%v [%#x]) = %v [%#x], want %v [%#x]", m.name, x, math.Float64bits(x),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	m.bad++
}

func (m *bitMatcher) done(atLeast int) {
	m.t.Helper()
	if m.bad > 0 {
		m.t.Fatalf("%s: %d of %d inputs differ", m.name, m.bad, m.n)
	}
	if m.n < atLeast {
		m.t.Fatalf("%s: only %d inputs checked, want at least %d", m.name, m.n, atLeast)
	}
	m.t.Logf("%s: %d inputs, all bit-identical", m.name, m.n)
}

// TestExp64MatchesMathExp holds exp64 to the FMA path of amd64 math.Exp,
// bit for bit: special values, the overflow limit, denormal results,
// random values and bit patterns, and a fine sweep of the finite range.
func TestExp64MatchesMathExp(t *testing.T) {
	requireFMAMathExp(t)
	m := &bitMatcher{t: t, name: "exp64"}
	check := func(x float64) { m.check(x, exp64(x), math.Exp(x)) }
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.375, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		expOverflow, math.Nextafter(expOverflow, 0), math.Nextafter(expOverflow, 1000),
		709.436, 709.437, 709.78, -708.3964185322641, -745.1332191019411, -745.1332191019412,
		-745.2, -746, -1075 / expLog2e, -1e10, -math.MaxFloat64, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for range 3_000_000 {
		check(-750 + 1462*rng.Float64())
	}
	for range 2_000_000 {
		check(math.Float64frombits(rng.Uint64()))
	}
	for i := range 1_462_001 {
		check(-750 + float64(i)*0.001)
	}
	for i := range 3_700_001 { // [-745, -708]: denormal results
		check(-745 + float64(i)*1e-5)
	}
	m.done(10_000_000)
}

// TestTanh64MatchesMathTanh holds tanh64 to math.Tanh, bit for bit, so
// tanh32 keeps the values it had when it called math.Tanh.
func TestTanh64MatchesMathTanh(t *testing.T) {
	requireFMAMathExp(t)
	m := &bitMatcher{t: t, name: "tanh64"}
	check := func(x float64) { m.check(x, tanh64(x), math.Tanh(x)) }
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.625, math.Nextafter(0.625, 0), -0.625, 44.014845965556525, 44.0148459655565,
		-44.014845965556525, 1e-300, -1e-300, math.SmallestNonzeroFloat64,
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(2))
	for range 1_000_000 {
		check(-50 + 100*rng.Float64())
	}
	for i := range 900_001 {
		check(-45 + float64(i)*1e-4)
	}
	m.done(1_900_000)
}

// TestExpAVX2MatchesExp64 pins the vector exp macro to exp64 at float64
// precision over [-700, 700], the range sigmoidAVX2 hands it. The float32
// activations round most of a float64 difference away, so this is the
// test that sees a wrong step in the macro.
func TestExpAVX2MatchesExp64(t *testing.T) {
	requireActAsm(t)
	checkExpAsm(t, "expAVX2", expAVX2, 4)
}

// TestExpAVX512MatchesExp64 is TestExpAVX2MatchesExp64 for the eight-lane
// macro, EXP8.
func TestExpAVX512MatchesExp64(t *testing.T) {
	if !useAVX512 || !useAVX2FMA {
		t.Skip("no AVX-512F with FMA: the eight-lane assembly does not run here")
	}
	checkExpAsm(t, "expAVX512", expAVX512, 8)
}

// checkExpAsm holds exp, an assembly routine of the given lane count, to
// exp64 bit for bit over [-700, 700]: special values, random values and a
// fine sweep.
func checkExpAsm(t *testing.T, name string, exp func(dst, src []float64), lanes int) {
	m := &bitMatcher{t: t, name: name}
	src := make([]float64, 0, 4096)
	dst := make([]float64, 4096)
	flush := func() {
		exp(dst, src)
		for i, x := range src {
			m.check(x, dst[i], exp64(x))
		}
		src = src[:0]
	}
	add := func(x float64) {
		if src = append(src, x); len(src) == cap(src) {
			flush()
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 700, -700, 1e-300, -1e-300, 0.375, math.Nextafter(700, 0),
		math.Nextafter(-700, 0), 0.5 / expLog2e, -0.5 / expLog2e, 1.5 / expLog2e,
	} {
		add(x)
	}
	rng := rand.New(rand.NewSource(3))
	for range 2_000_000 {
		add(-700 + 1400*rng.Float64())
	}
	for i := range 7_000_001 {
		add(-700 + float64(i)*2e-4)
	}
	for len(src)%lanes != 0 {
		add(0)
	}
	flush()
	m.done(9_000_000)
}

// TestLog1p64MatchesMathLog1p holds log1p64 to math.Log1p, bit for bit,
// where gc fuses no multiply-add (amd64, 386) and math.Log1p is the Go
// code log1p64 transcribes: special values, both sides of every branch
// bound, the loss's inputs exp64(-|x|) over a stride of float32 x, and
// random values and bit patterns.
func TestLog1p64MatchesMathLog1p(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skip("gc may fuse math.log1p's multiply-adds on " + runtime.GOARCH)
	}
	m := &bitMatcher{t: t, name: "log1p64"}
	check := func(x float64) { m.check(x, log1p64(x), math.Log1p(x)) }
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, math.Inf(1), math.Inf(-1), math.NaN(), -2, -1e300,
		math.Float64frombits(0x7ff8000000000001), math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1 - 0x1p-53, 1 - 0x1p-52, 1 + 0x1p-52,
	} {
		check(x)
	}
	for _, b := range []float64{
		-1, log1pSqrt2HalfM1, 0x1p-54, 0x1p-29, log1pSqrt2M1, 0x1p53, math.Sqrt2 - 1,
		math.Sqrt2/2 - 1, 1, 2 - 0x1p-51,
	} {
		for _, x := range []float64{b, -b} {
			lo, hi := x, x
			for range 8 {
				check(lo)
				check(hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	for b := uint64(0); b < 1<<31; b += 509 {
		x := float64(math.Float32frombits(uint32(b)))
		check(exp64(-x))
	}
	rng := rand.New(rand.NewSource(8))
	for range 1_000_000 {
		check(math.Float64frombits(rng.Uint64()))
	}
	for range 1_000_000 {
		check(-1 + 3*rng.Float64())
	}
	for range 500_000 {
		check(math.Ldexp(rng.Float64(), -rng.Intn(70)))
	}
	m.done(6_000_000)
}

// TestLog1pAVX2MatchesLog1p64 pins the vector log1p macro to log1p64 at
// float64 precision over the range bceTermsAVX2 hands it, [2**-29, 1)
// below its bound near 1: the 20,000 float64s on each side of the blended
// branches' bounds (e at √2-1, 1 + e at √2) and of the range's ends, a
// log-uniform and a uniform random sample, and a stride across the range. Few float32 inputs reach some of
// these e, so the loss-term sweeps alone would not see a wrong blend there.
func TestLog1pAVX2MatchesLog1p64(t *testing.T) {
	requireActAsm(t)
	m := &bitMatcher{t: t, name: "log1pAVX2"}
	src := make([]float64, 0, 4096)
	dst := make([]float64, 4096)
	flush := func() {
		log1pAVX2(dst, src)
		for i, x := range src {
			m.check(x, dst[i], log1p64(x))
		}
		src = src[:0]
	}
	add := func(x float64) {
		if src = append(src, x); len(src) == cap(src) {
			flush()
		}
	}
	top := math.Float64frombits(0x3ffffffffffffffd) - 1 // first e whose 1 + e is the bound
	for _, b := range []float64{log1pSqrt2M1, math.Sqrt2 - 1, 0x1p-29, 0.5, top} {
		lo, hi := b, b
		for range 20_000 {
			if lo >= 0x1p-29 {
				add(lo)
			}
			if hi < top {
				add(hi)
			}
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
		}
	}
	rng := rand.New(rand.NewSource(10))
	for range 1_000_000 {
		add(math.Ldexp(1+rng.Float64(), -1-rng.Intn(29)))
	}
	for range 1_000_000 {
		if x := rng.Float64(); x >= 0x1p-29 && x < top {
			add(x)
		}
	}
	for i := range 3_000_000 {
		add(0x1p-29 + float64(i)*(1.0/3_000_000))
	}
	for len(src)%4 != 0 {
		add(0.25)
	}
	flush()
	m.done(5_000_000)
}

// checkBCETermRow runs bceTermRow over src and compares every term with
// bceTerm's, bit for bit.
func checkBCETermRow(t *testing.T, src []float32) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = 42
	bceTermRow(dst, src)
	for i, x := range src {
		if got, want := dst[i], bceTerm(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bceTermRow: element %d of %d: x = %v [%#08x]: got %v [%#x], want %v [%#x]",
				i, len(src), x, math.Float32bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if dst[len(src)] != 42 {
		t.Fatalf("bceTermRow wrote past %d elements", len(src))
	}
}

// bceSpecials are inputs the loss-term assembly leaves to Go, and their
// neighbours: non-finite values, |x| beyond 700, terms whose e =
// exp64(-|x|) lies below 2**-29 (|x| above ~20.1), and terms whose 1 + e
// lies within a few ulps of 2 (|x| below ~3.3e-16, zero and subnormals).
var bceSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), indefiniteNaN, 701, -750,
	20.1, 20.2, -25, 90, 0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
	-math.SmallestNonzeroFloat32, 1e-16, 2e-16, 3e-16, 3.5e-16, 5e-16, 1e-15, -2e-16,
}

// TestBCETermRowMatchesScalar holds bceTermRow to bceTerm, bit for bit:
// every length up to 19, each special input at every position of a row
// (so the assembly meets it in every lane of a group and resumes after
// it), every float32 around the branch bounds LOG1P4 blends, and a stride
// over the non-negative float32 bit patterns (BenchmarkBCETermRowFullRange
// checks all of them).
func TestBCETermRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	t.Run("lengths", func(t *testing.T) {
		for n := 0; n <= 19; n++ {
			for range 50 {
				row := make([]float32, n)
				for i := range row {
					row[i] = float32(rng.NormFloat64() * 4)
				}
				checkBCETermRow(t, row)
			}
		}
	})
	t.Run("specials", func(t *testing.T) {
		row := make([]float32, 19)
		for _, s := range bceSpecials {
			for at := range row {
				for i := range row {
					row[i] = float32(rng.NormFloat64() * 4)
				}
				row[at] = s
				if at+5 < len(row) {
					row[at+5] = bceSpecials[rng.Intn(len(bceSpecials))]
				}
				checkBCETermRow(t, row)
			}
		}
	})
	t.Run("bounds", func(t *testing.T) {
		// |x| near -ln(√2-1) (e at Sqrt2M1), near 29·ln 2 (e at 2**-29),
		// near 700, and the tiny |x| where 1 + e reaches 2.
		var row []float32
		for _, c := range []float32{0.88137358, 20.101268, 700} {
			x := c
			for range 2000 {
				x = math.Nextafter32(x, 0)
			}
			for range 4000 {
				row = append(row, x, -x)
				x = math.Nextafter32(x, math.MaxFloat32)
			}
		}
		for x := float32(1e-17); x < 1e-14; x *= 1.0001 {
			row = append(row, x)
		}
		checkBCETermRow(t, row)
	})
	t.Run("stride", func(t *testing.T) {
		row := make([]float32, 0, 4093)
		for b := uint32(0); b < 0x7f800000; b += 251 {
			if row = append(row, math.Float32frombits(b)); len(row) == cap(row) {
				checkBCETermRow(t, row)
				row = row[:0]
			}
		}
		checkBCETermRow(t, row)
	})
}

// BenchmarkBCETermRowFullRange checks bceTermRow against bceTerm at every
// non-negative float32 bit pattern, the NaNs and +Inf included, split
// over GOMAXPROCS goroutines. It is a check, run once by scripts/verify.sh
// with -benchtime 1x; its time is the sweep's.
func BenchmarkBCETermRowFullRange(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failures []string
		const chunk = 4096
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := make([]float32, chunk)
				dst := make([]float64, chunk)
				for base := uint64(w) * chunk; base < 1<<31; base += uint64(workers) * chunk {
					for i := range src {
						src[i] = math.Float32frombits(uint32(base) + uint32(i))
					}
					bceTermRow(dst, src)
					for i, x := range src {
						if want := bceTerm(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
							mu.Lock()
							if len(failures) < 10 {
								failures = append(failures, fmt.Sprintf("x = %v [%#08x]: got %#x, want %#x",
									x, math.Float32bits(x), math.Float64bits(dst[i]), math.Float64bits(want)))
							}
							mu.Unlock()
						}
					}
				}
			}()
		}
		wg.Wait()
		if len(failures) > 0 {
			b.Fatalf("bceTermRow differs from bceTerm:\n%s", strings.Join(failures, "\n"))
		}
	}
}

// actRows pairs each row function with the scalar function it must match.
var actRows = []struct {
	name   string
	row    func(dst, src []float32)
	scalar func(float32) float32
}{
	{"sigmoidRow", sigmoidRow, sigmoid32},
	{"tanhRow", tanhRow, tanh32},
}

// checkActRows runs both row functions over src and compares every element
// with its scalar function, bit for bit.
func checkActRows(t *testing.T, src []float32) {
	t.Helper()
	dst := make([]float32, len(src))
	for _, a := range actRows {
		a.row(dst, src)
		for i, x := range src {
			if want := a.scalar(x); math.Float32bits(dst[i]) != math.Float32bits(want) {
				t.Fatalf("%s: element %d of %d: x = %v [%#08x]: got %v [%#08x], want %v [%#08x]",
					a.name, i, len(src), x, math.Float32bits(x), dst[i], math.Float32bits(dst[i]),
					want, math.Float32bits(want))
			}
		}
	}
}

// rowFeeder collects inputs into rows of 4093 elements (not a multiple of
// 4, so every row also runs a tail in Go) and checks each full row.
type rowFeeder struct {
	t   *testing.T
	buf []float32
	n   int
}

func newRowFeeder(t *testing.T) *rowFeeder {
	return &rowFeeder{t: t, buf: make([]float32, 0, 4093)}
}

func (f *rowFeeder) add(x float32) {
	f.n++
	if f.buf = append(f.buf, x); len(f.buf) == cap(f.buf) {
		f.flush()
	}
}

func (f *rowFeeder) flush() {
	f.t.Helper()
	checkActRows(f.t, f.buf)
	f.buf = f.buf[:0]
}

// fallbackSpecials are inputs outside the assembly's range for sigmoid
// (±Inf, NaNs, 701) or tanh (also -45), so a row holding one runs on from
// there, or whole, in Go.
var fallbackSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000), 701, -45,
}

// requireActAsm skips a test of the assembly where it does not run: a
// sweep there would only compare the scalar functions with themselves (on
// math.FMA's slow software path, off amd64).
func requireActAsm(t *testing.T) {
	t.Helper()
	if !useAVX2FMA {
		t.Skip("no AVX2+FMA: the assembly does not run here")
	}
}

// TestActivationRowsMatchScalar holds sigmoidRow and tanhRow to sigmoid32
// and tanh32, bit for bit, on every path the host runs: a stride over
// every float32 bit pattern in the vector path's range, every float32
// around tanh's 0.625 branch point, zeros and subnormals, the 44 and 700
// limits, out-of-range values that force the Go fallback mid-row, and
// rows too short for the assembly.
func TestActivationRowsMatchScalar(t *testing.T) {
	onPaths(t, checkActivationRows)
}

func checkActivationRows(t *testing.T) {
	t.Run("stride61", func(t *testing.T) {
		requireActAsm(t)
		f := newRowFeeder(t)
		for b := uint64(0); b < 1<<32; b += 61 {
			// NaN fails the comparison and stays out.
			if x := math.Float32frombits(uint32(b)); x >= -44 && x <= 44 {
				f.add(x)
			}
		}
		f.flush()
		t.Logf("%d values with |x| <= 44", f.n)
	})
	t.Run("tanh-branch", func(t *testing.T) {
		requireActAsm(t)
		f := newRowFeeder(t)
		for b := math.Float32bits(0.55); b < math.Float32bits(0.7); b++ {
			x := math.Float32frombits(b)
			f.add(x)
			f.add(-x)
		}
		f.flush()
	})
	t.Run("zeros-subnormals", func(t *testing.T) {
		f := newRowFeeder(t)
		for b := uint32(0); b <= 0x800000; b += 97 {
			x := math.Float32frombits(b)
			f.add(x)
			f.add(-x)
		}
		for _, b := range []uint32{1, 2, 0x7fffff, 0x800000} {
			f.add(math.Float32frombits(b))
			f.add(-math.Float32frombits(b))
		}
		f.flush()
	})
	t.Run("limits", func(t *testing.T) {
		requireActAsm(t)
		f := newRowFeeder(t)
		for _, v := range []float32{44, 44.014847, 88.72284, 700, math.MaxFloat32} {
			for _, x := range []float32{v, math.Nextafter32(v, 0), math.Nextafter32(v, math.MaxFloat32)} {
				f.add(x)
				f.add(-x)
			}
		}
		rng := rand.New(rand.NewSource(4))
		for range 1_000_000 {
			f.add(float32(-800 + 1600*rng.Float64()))
		}
		f.flush()
	})
	t.Run("nonfinite-fallback", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{13, 64} {
			row := make([]float32, n)
			for _, s := range fallbackSpecials {
				for at := range row {
					for i := range row {
						row[i] = float32(rng.NormFloat64() * 3)
					}
					row[at] = s
					checkActRows(t, row)
				}
			}
		}
	})
	t.Run("lengths", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for n := 0; n <= 9; n++ {
			for range 100 {
				row := make([]float32, n)
				for i := range row {
					row[i] = float32(rng.NormFloat64() * 3)
				}
				checkActRows(t, row)
			}
		}
	})
}

// BenchmarkActivationRows times one 256-wide row (an LSTM gate block at
// hidden 64) through each row function on every path the host runs, the
// scalar functions on "go".
func BenchmarkActivationRows(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 256)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 2)
	}
	dst := make([]float32, len(src))
	for _, p := range append(vecPaths(b), kernelPath{name: "go"}) {
		for _, a := range actRows {
			b.Run(p.name+"/"+a.name, func(b *testing.B) {
				b.ReportAllocs()
				p.use(b)
				for i := 0; i < b.N; i++ {
					a.row(dst, src)
				}
			})
		}
	}
}
