package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Weight-file format:
//
//	magic "VNN1" | count u32
//	per param: name (u16 len + bytes) | rows u32 | cols u32 | data f32...
//
// Weights are matched by name on load, so a model rebuilt with the same
// configuration and vocabulary can be restored exactly (the profile-driven
// deployment path of §5.5: train offline, ship the weights).

const weightsMagic = "VNN1"

// WriteTo serializes every parameter's weights (not optimizer state) and
// returns the number of bytes written.
func (s *ParamSet) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	write := func(data interface{}) error {
		return binary.Write(bw, binary.LittleEndian, data)
	}
	if _, err := bw.WriteString(weightsMagic); err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(s.list))); err != nil {
		return cw.n, err
	}
	for _, p := range s.list {
		if len(p.Name) > 1<<16-1 {
			return cw.n, fmt.Errorf("nn: parameter name too long: %q", p.Name)
		}
		if err := write(uint16(len(p.Name))); err != nil {
			return cw.n, err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return cw.n, err
		}
		if err := write(uint32(p.W.Rows)); err != nil {
			return cw.n, err
		}
		if err := write(uint32(p.W.Cols)); err != nil {
			return cw.n, err
		}
		for _, v := range p.W.Data {
			if err := write(math.Float32bits(v)); err != nil {
				return cw.n, err
			}
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadFrom restores weights into the set's parameters, matching by name,
// and returns the number of bytes of the weights it read. Every parameter
// in the file must exist in the set with the same shape; parameters
// absent from the file are left untouched. Every value must be finite and
// not subnormal: a NaN or Inf poisons every output, and a subnormal
// operand slows the matmul kernels some fiftyfold. The whole file is
// decoded and checked before any weight is written, so a rejected or
// truncated file changes nothing.
func (s *ParamSet) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return cr.n, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return cr.n, fmt.Errorf("nn: bad weights magic %q", magic)
	}
	var count uint32
	if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
		return cr.n, fmt.Errorf("nn: reading parameter count: %w", err)
	}
	type decoded struct {
		p    *Param
		data []float32
	}
	var params []decoded
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(cr, binary.LittleEndian, &nameLen); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %d name: %w", i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %d name: %w", i, err)
		}
		var rows, cols uint32
		if err := binary.Read(cr, binary.LittleEndian, &rows); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %q shape: %w", name, err)
		}
		if err := binary.Read(cr, binary.LittleEndian, &cols); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %q shape: %w", name, err)
		}
		p := s.ByName(string(name))
		if p == nil {
			return cr.n, fmt.Errorf("nn: unknown parameter %q in weights file", name)
		}
		if p.W.Rows != int(rows) || p.W.Cols != int(cols) {
			return cr.n, fmt.Errorf("nn: parameter %q shape %dx%d != file %dx%d",
				name, p.W.Rows, p.W.Cols, rows, cols)
		}
		raw := make([]byte, 4*len(p.W.Data))
		if _, err := io.ReadFull(cr, raw); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %q data: %w", name, err)
		}
		data := make([]float32, len(p.W.Data))
		for j := range data {
			bits := binary.LittleEndian.Uint32(raw[4*j:])
			if exp := bits >> 23 & 0xff; exp == 0xff || exp == 0 && bits&0x7fffff != 0 {
				return cr.n, fmt.Errorf("nn: parameter %q element %d: %v is not a finite normal value",
					name, j, math.Float32frombits(bits))
			}
			data[j] = math.Float32frombits(bits)
		}
		params = append(params, decoded{p, data})
	}
	for _, d := range params {
		copy(d.p.W.Data, d.data)
	}
	return cr.n, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
