package quant

import (
	"math"
	"testing"
)

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
