package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"voyager/internal/tensor"
)

// f32Column encodes a column of float32s as fuzz-seed bytes.
func f32Column(vals ...float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// FuzzQ8Quantize feeds arbitrary float32 matrices (including NaN, ±Inf and
// −0 columns) through the int8 quantizer. It must never panic; for finite
// inputs the documented per-element error bound |ŵ−w| ≤ scale/2 must hold
// and the stored codes must stay within the symmetric ±127 range; and
// requantizing the same weights twice must be bit-stable (the lazy
// requantization hook depends on that).
func FuzzQ8Quantize(f *testing.F) {
	f.Add(f32Column(1, -2, 3, -4, 0.5, 127, -127, 0.001), uint8(2))
	f.Add(f32Column(float32(math.NaN()), 1, float32(math.NaN()), -1), uint8(2))
	f.Add(f32Column(float32(math.Inf(1)), 2, float32(math.Inf(-1)), -2), uint8(2))
	negZero := math.Float32frombits(0x8000_0000)
	f.Add(f32Column(negZero, negZero, 0, negZero), uint8(4))
	f.Add(f32Column(1e38, -1e38, 1e-38, -1e-38, 65504, -65504), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, colsRaw uint8) {
		cols := int(colsRaw%16) + 1
		n := len(data) / 4
		rows := n / cols
		if rows == 0 {
			return
		}
		w := tensor.NewMat(rows, cols)
		finite := true
		for i := range w.Data[:rows*cols] {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			w.Data[i] = v
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				finite = false
			}
		}
		q := QuantizeQ8(w)
		if q.Rows != rows || q.Cols != cols || len(q.Scale) != cols {
			t.Fatalf("shape: got %dx%d/%d scales", q.Rows, q.Cols, len(q.Scale))
		}
		q.Dequantize(nil) // must not panic whatever the codes are
		if finite {
			for i, v := range w.Data {
				j := i % cols
				if c := q.Data[i]; c < -127 || c > 127 {
					t.Fatalf("code %d at %d outside symmetric range", c, i)
				}
				// Reconstruct in float64: columns peaking within one code
				// step of MaxFloat32 overflow the float32 multiply, but the
				// stored code must still honor the scale/2 error bound.
				bound := float64(q.Scale[j]) / 2
				rec := float64(q.Data[i]) * float64(q.Scale[j])
				if d := math.Abs(rec - float64(v)); d > bound+1e-6 {
					t.Fatalf("elem %d: |%g - %g| = %g > scale/2 = %g", i, rec, v, d, bound)
				}
			}
		}
		again := QuantizeQ8(w)
		for i := range q.Data {
			if q.Data[i] != again.Data[i] {
				t.Fatalf("requantization not bit-stable at %d: %d vs %d", i, q.Data[i], again.Data[i])
			}
		}
		for j := range q.Scale {
			if math.Float32bits(q.Scale[j]) != math.Float32bits(again.Scale[j]) {
				t.Fatalf("scale %d not bit-stable", j)
			}
		}
	})
}

// FuzzF16RoundTrip checks both directions of the binary16 converters over
// arbitrary bit patterns: f16→f32→f16 must be the identity for every
// non-NaN half (signed zeros, subnormals and infinities included), NaNs
// must canonicalize to the quiet-NaN encoding, and f32→f16 must be
// idempotent under one decode/encode cycle (round-to-nearest-even has
// nothing left to round the second time).
func FuzzF16RoundTrip(f *testing.F) {
	f.Add(uint16(0x0000), uint32(0))              // +0
	f.Add(uint16(0x8000), math.Float32bits(-0.0)) // −0
	f.Add(uint16(0x7c00), math.Float32bits(float32(math.Inf(1))))
	f.Add(uint16(0xfc00), math.Float32bits(float32(math.Inf(-1))))
	f.Add(uint16(0x7e00), math.Float32bits(float32(math.NaN())))
	f.Add(uint16(0x7c01), uint32(0x7fc00001))             // signaling-ish NaN payloads
	f.Add(uint16(0x0001), math.Float32bits(5.9604645e-8)) // smallest subnormal
	f.Add(uint16(0x3c00), math.Float32bits(1))
	f.Add(uint16(0x7bff), math.Float32bits(65504)) // largest finite half
	f.Add(uint16(0x1234), math.Float32bits(65520)) // rounds up to +Inf
	f.Fuzz(func(t *testing.T, h uint16, fbits uint32) {
		// Direction 1: every half value round-trips exactly, except NaNs
		// which canonicalize.
		f32 := F16ToF32(h)
		back := F32ToF16(f32)
		if math.IsNaN(float64(f32)) {
			if back&0x7fff != 0x7e00 {
				t.Fatalf("NaN half %#04x canonicalized to %#04x, want sign|0x7e00", h, back)
			}
		} else if back != h {
			t.Fatalf("half %#04x → %g → %#04x (not identity)", h, f32, back)
		}

		// Direction 2: encoding an arbitrary float32 is idempotent after one
		// decode, and saturation/sign behavior is preserved.
		v := math.Float32frombits(fbits)
		enc := F32ToF16(v)
		dec := F16ToF32(enc)
		if math.IsNaN(float64(v)) {
			if enc&0x7fff != 0x7e00 {
				t.Fatalf("NaN %#08x encoded to %#04x, want canonical sign|0x7e00", fbits, enc)
			}
			return
		}
		if F32ToF16(dec) != enc {
			t.Fatalf("encode not idempotent: %g → %#04x → %g → %#04x", v, enc, dec, F32ToF16(dec))
		}
		if (enc&0x8000 != 0) != math.Signbit(float64(v)) {
			t.Fatalf("sign lost: %g → %#04x", v, enc)
		}
	})
}
