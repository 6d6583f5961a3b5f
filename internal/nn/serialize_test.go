package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildSet(rng *rand.Rand) *ParamSet {
	var s ParamSet
	a := NewParam("layer.w", 3, 4)
	a.W.Uniform(rng, 1)
	b := NewParam("layer.b", 1, 4)
	b.W.Uniform(rng, 1)
	e := NewSparseParam("emb", 10, 2)
	e.W.Uniform(rng, 1)
	s.Add(a, b, e)
	return &s
}

func TestWeightsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := buildSet(rng)
	var buf bytes.Buffer
	nw, err := src.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if nw != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", nw, buf.Len())
	}
	written := int64(buf.Len())
	dst := buildSet(rand.New(rand.NewSource(99))) // different init
	nr, err := dst.ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if nr != written {
		t.Fatalf("ReadFrom read %d bytes of a %d-byte file", nr, written)
	}
	for i, p := range src.All() {
		q := dst.All()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatalf("param %s elem %d mismatch", p.Name, j)
			}
		}
	}
}

func TestReadFromRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := buildSet(rng)
	if _, err := s.ReadFrom(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatalf("bad magic accepted")
	}

	// Unknown parameter name.
	var other ParamSet
	p := NewParam("mystery", 1, 1)
	other.Add(p)
	var buf bytes.Buffer
	other.WriteTo(&buf)
	if _, err := s.ReadFrom(&buf); err == nil {
		t.Fatalf("unknown parameter accepted")
	}

	// Shape mismatch.
	var shaped ParamSet
	shaped.Add(NewParam("layer.w", 2, 2))
	buf.Reset()
	shaped.WriteTo(&buf)
	if _, err := s.ReadFrom(&buf); err == nil {
		t.Fatalf("shape mismatch accepted")
	}

	// Truncated data.
	buf.Reset()
	s.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := s.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatalf("truncated file accepted")
	}
}

// TestReadFromRejectsBadValues writes a file whose last parameter holds
// one NaN, Inf or subnormal value and checks that ReadFrom names that
// parameter and element, and leaves every weight as it was, the ones
// listed before the bad parameter included.
func TestReadFromRejectsBadValues(t *testing.T) {
	for _, c := range []struct {
		name string
		bits uint32
	}{
		{"NaN", 0x7fc00000},
		{"negative NaN", 0xffc00001},
		{"+Inf", 0x7f800000},
		{"-Inf", 0xff800000},
		{"subnormal", 0x00000001},
		{"largest subnormal", 0x807fffff},
	} {
		src := buildSet(rand.New(rand.NewSource(3)))
		emb := src.ByName("emb")
		emb.W.Data[7] = math.Float32frombits(c.bits)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatalf("%s: WriteTo: %v", c.name, err)
		}
		dst := buildSet(rand.New(rand.NewSource(4)))
		before := make([][]float32, len(dst.All()))
		for i, p := range dst.All() {
			before[i] = append([]float32(nil), p.W.Data...)
		}
		_, err := dst.ReadFrom(&buf)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if msg := err.Error(); !strings.Contains(msg, `"emb"`) || !strings.Contains(msg, "element 7") {
			t.Errorf("%s: error %q does not name parameter \"emb\" and element 7", c.name, msg)
		}
		for i, p := range dst.All() {
			for j, v := range p.W.Data {
				if math.Float32bits(v) != math.Float32bits(before[i][j]) {
					t.Fatalf("%s: rejected file changed %s[%d]", c.name, p.Name, j)
				}
			}
		}
	}
	// Zeros of both signs and the smallest normal value load.
	src := buildSet(rand.New(rand.NewSource(5)))
	w := src.ByName("layer.w").W.Data
	w[0], w[1], w[2] = 0, float32(math.Copysign(0, -1)), math.Float32frombits(0x00800000)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := buildSet(rand.New(rand.NewSource(6))).ReadFrom(&buf); err != nil {
		t.Fatalf("zeros and the smallest normal rejected: %v", err)
	}
}

// TestReadFromTruncatedChangesNothing cuts a file inside its last
// parameter: the earlier parameters, complete in the file, must not be
// written either, and the count is every byte the file held.
func TestReadFromTruncatedChangesNothing(t *testing.T) {
	src := buildSet(rand.New(rand.NewSource(7)))
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dst := buildSet(rand.New(rand.NewSource(8)))
	w := append([]float32(nil), dst.ByName("layer.w").W.Data...)
	n, err := dst.ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if err == nil {
		t.Fatalf("truncated file accepted")
	}
	if n != int64(buf.Len()-4) {
		t.Errorf("ReadFrom reported %d bytes of a %d-byte truncated file", n, buf.Len()-4)
	}
	for j, v := range dst.ByName("layer.w").W.Data {
		if v != w[j] {
			t.Fatalf("truncated file changed layer.w[%d]", j)
		}
	}
}
