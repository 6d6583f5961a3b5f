package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"voyager/internal/tracing"
)

// Span recording for the traced run. Spans live in the benchmark's own
// code, around each call into a module; the modules themselves are not
// instrumented. Each span is an async span with caller-supplied
// timestamps, so a parent and its children share clock reads and the
// children can tile the parent exactly. A span id packs its group (one
// request, one pipeline) above idBits and its slot within the group below:
// slot 0 is the parent, slots 1.. its children.
const idBits = 4

// spanRec records spans onto one tracing track. A nil *spanRec records
// nothing, which is how untraced runs call the same code.
type spanRec struct {
	tk   *tracing.Track
	base time.Time
}

func newSpanRec(tr *tracing.Tracer, process, thread string) *spanRec {
	return &spanRec{tk: tr.Track(process, thread), base: time.Now()}
}

// begin opens group's parent span at t.
func (r *spanRec) begin(name string, group uint64, t time.Time) {
	if r != nil {
		r.tk.AsyncBeginAt(name, group<<idBits, int64(t.Sub(r.base)))
	}
}

// end closes group's parent span at t.
func (r *spanRec) end(name string, group uint64, t time.Time) {
	if r != nil {
		r.tk.AsyncEndAt(name, group<<idBits, int64(t.Sub(r.base)))
	}
}

// span records [t0, t1] as child slot (1..) of group.
func (r *spanRec) span(name string, group uint64, slot int, t0, t1 time.Time) {
	if r == nil {
		return
	}
	id := group<<idBits | uint64(slot)
	r.tk.AsyncBeginAt(name, id, int64(t0.Sub(r.base)))
	r.tk.AsyncEndAt(name, id, int64(t1.Sub(r.base)))
}

// spanGroup is one parent span and its children, read back from an
// exported trace.
type spanGroup struct {
	parent   interval
	children []interval // sorted by begin
}

type interval struct {
	name       string
	begin, end int64 // ns
}

func (iv interval) dur() int64 { return iv.end - iv.begin }

// traceSpans reads an exported trace, checks it with the same validator
// cmd/tracecheck runs, and regroups the benchmark's async spans by group.
func traceSpans(path string) (map[uint64]*spanGroup, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := tracing.ValidateBytes(data); err != nil {
		return nil, fmt.Errorf("trace %s fails validation: %w", path, err)
	}
	tf, err := tracing.Parse(data)
	if err != nil {
		return nil, err
	}
	open := map[string]int64{}
	groups := map[uint64]*spanGroup{}
	for _, ev := range tf.Events {
		if ev.Ph != "b" && ev.Ph != "e" {
			continue
		}
		ts, err := parseTS(string(ev.TS))
		if err != nil {
			return nil, err
		}
		key := ev.Cat + "/" + ev.ID
		if ev.Ph == "b" {
			open[key] = ts
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(ev.ID, "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("span id %q: %w", ev.ID, err)
		}
		g := groups[id>>idBits]
		if g == nil {
			g = &spanGroup{}
			groups[id>>idBits] = g
		}
		iv := interval{name: ev.Name, begin: open[key], end: ts}
		delete(open, key)
		if id&(1<<idBits-1) == 0 {
			g.parent = iv
		} else {
			g.children = append(g.children, iv)
		}
	}
	for _, g := range groups {
		sort.Slice(g.children, func(i, j int) bool { return g.children[i].begin < g.children[j].begin })
	}
	return groups, nil
}

// parseTS converts an exported wall timestamp ("micros.nnn") back to whole
// nanoseconds without a float round trip.
func parseTS(s string) (int64, error) {
	whole, frac, _ := strings.Cut(s, ".")
	us, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	var ns int64
	if frac != "" {
		if len(frac) != 3 {
			return 0, fmt.Errorf("timestamp %q: want three fraction digits", s)
		}
		if ns, err = strconv.ParseInt(frac, 10, 64); err != nil {
			return 0, fmt.Errorf("timestamp %q: %w", s, err)
		}
	}
	return us*1000 + ns, nil
}

// covered returns how much of the parent the children cover (their union,
// clipped to the parent).
func (g *spanGroup) covered() int64 {
	var total, reach int64
	reach = g.parent.begin
	for _, c := range g.children {
		b, e := c.begin, c.end
		if b < reach {
			b = reach
		}
		if e > g.parent.end {
			e = g.parent.end
		}
		if e > b {
			total += e - b
			reach = e
		}
	}
	return total
}

// selfTime is the parent's duration minus what its children cover.
func (g *spanGroup) selfTime() int64 { return g.parent.dur() - g.covered() }

// partitions reports whether the children tile the parent exactly: the
// first starts where the parent starts, each ends where the next starts,
// and the last ends where the parent ends.
func (g *spanGroup) partitions() bool {
	if len(g.children) == 0 {
		return false
	}
	at := g.parent.begin
	for _, c := range g.children {
		if c.begin != at || c.end < c.begin {
			return false
		}
		at = c.end
	}
	return at == g.parent.end
}

// childDurations collects, per child name, the durations across the
// groups whose parent has the given name. Children have no children of
// their own, so a duration is also the child's self time.
func childDurations(groups map[uint64]*spanGroup, parent string) map[string][]int64 {
	out := map[string][]int64{}
	for _, g := range groups {
		if g.parent.name != parent {
			continue
		}
		for _, c := range g.children {
			out[c.name] = append(out[c.name], c.dur())
		}
	}
	return out
}

// medianNs is the median of ns samples (0 when empty).
func medianNs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return median(nsToFloats(ns, 1))
}
