package quant

import (
	"math"
	"math/rand"
	"testing"
)

// TestF16ExactRoundTrip: every finite binary16 bit pattern must survive
// f16 → f32 → f16 unchanged (the f32 value is exact, so re-rounding is the
// identity).
func TestF16ExactRoundTrip(t *testing.T) {
	for u := 0; u < 1<<16; u++ {
		bits := uint16(u)
		if bits&0x7c00 == 0x7c00 && bits&0x3ff != 0 {
			continue // NaN payloads are canonicalized, not preserved
		}
		f := F16ToF32(bits)
		if got := F32ToF16(f); got != bits {
			t.Fatalf("pattern %#04x → %v → %#04x", bits, f, got)
		}
	}
}

// TestF16RoundingError bounds the f32 → f16 rounding error at half a ULP
// for values in the normal range (relative error ≤ 2^-11).
func TestF16RoundingError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		f := (rng.Float32()*2 - 1) * 1000
		g := F16ToF32(F32ToF16(f))
		relErr := math.Abs(float64(g-f)) / math.Max(math.Abs(float64(f)), 6.1e-5)
		if relErr > 1.0/(1<<11) {
			t.Fatalf("%v → %v: relative error %g", f, g, relErr)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct{ in, want float32 }{
		{0, 0}, {inf, inf}, {-inf, float32(math.Inf(-1))},
		{65504, 65504},                 // largest binary16 normal
		{100_000, inf},                 // overflow saturates to Inf
		{1e-9, 0},                      // underflow flushes to zero through rounding
		{6.1035156e-05, 6.1035156e-05}, // smallest binary16 normal
	}
	for _, c := range cases {
		if got := F16ToF32(F32ToF16(c.in)); got != c.want {
			t.Errorf("%v: got %v want %v", c.in, got, c.want)
		}
	}
	if g := F16ToF32(F32ToF16(float32(math.NaN()))); !math.IsNaN(float64(g)) {
		t.Errorf("NaN not preserved: %v", g)
	}
	negZero := float32(math.Copysign(0, -1))
	if bits := math.Float32bits(F16ToF32(F32ToF16(negZero))); bits != 0x80000000 {
		t.Errorf("-0 not preserved: %#08x", bits)
	}
}

// TestAffineQuantize pins the per-tensor affine helper shared with
// nn.ParamSet.Quantize: values land on grid points, zeros stay zero, and
// degenerate inputs are no-ops.
func TestAffineQuantize(t *testing.T) {
	data := []float32{-1, -0.4, 0, 0.3, 1}
	AffineQuantize(data, 2) // 4 levels over [-1, 1]: step 2/3
	if data[2] != 0 {
		t.Fatalf("zero moved to %v", data[2])
	}
	step := float32(2.0 / 3.0)
	for i, v := range data {
		if v == 0 {
			continue
		}
		k := (v + 1) / step
		if d := math.Abs(float64(k - float32(int32(k+0.5)))); d > 1e-5 {
			t.Fatalf("elem %d = %v not on the 4-level grid", i, v)
		}
	}
	same := []float32{0.5, 0.5}
	AffineQuantize(same, 8)
	if same[0] != 0.5 || same[1] != 0.5 {
		t.Fatalf("constant tensor changed: %v", same)
	}
	empty := []float32{}
	AffineQuantize(empty, 8) // must not panic
}
