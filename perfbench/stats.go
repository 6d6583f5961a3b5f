package main

import (
	"math"
	"sort"
)

// The benchmark's own statistics. Every figure it prints goes through
// these few functions, so they carry their own unit tests: an analyzer bug
// that silently misreads samples is worse than no benchmark.

// minBeyond is the fewest samples a reported tail percentile must have
// above it; a percentile with fewer is not reported.
const minBeyond = 10

// rank returns the 1-based nearest rank of the q-quantile among n samples:
// ceil(q·n), clamped to [1, n]. The small slack keeps q·n values that are
// whole numbers in exact arithmetic (0.99·1000) from rounding up a rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least ceil(q·n) samples at or below it. NaN when
// empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailReportable reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func tailReportable(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// sortedFloats returns an ascending copy of xs.
func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (unsorted), or the mean of the two
// middle values when their number is even; NaN when empty. Used for the
// small counts of set-ups, pipelines and windows, where the nearest rank
// of an even count would report the lower middle value.
func median(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nsToFloats converts nanosecond samples to float64 in the given unit
// (divisor: 1 for ns, 1e3 for µs, ...), sorted ascending.
func nsToFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread bound is stated in. It needs at least
// two samples; with fewer it returns the lone value (or NaN) twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedFloats(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// verdict is the outcome of comparing a change's runs with its parent's.
type verdict int

const (
	noShift verdict = iota
	better
	worse
)

func (v verdict) String() string {
	switch v {
	case better:
		return "better"
	case worse:
		return "worse"
	}
	return "no shift"
}

// compareRuns applies the claim rule to runs paired by index (pair i ran
// back to back): the change is better (or worse) only when it wins (or
// loses) at least nine tenths of all pairs, ties counting for neither, and
// its median differs from the parent's by more than the distance between
// the parent's own quartiles. Anything else is no shift: a difference
// inside the parent's run-to-run spread cannot be told from noise.
func compareRuns(parent, change []float64, lowerIsBetter bool) verdict {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	if n == 0 {
		return noShift
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		d := change[i] - parent[i]
		if lowerIsBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, q3 := quartiles(parent[:n])
	gap := median(change[:n]) - median(parent[:n])
	if lowerIsBetter {
		gap = -gap
	}
	switch {
	case wins*10 >= 9*n && gap > q3-q1:
		return better
	case losses*10 >= 9*n && -gap > q3-q1:
		return worse
	}
	return noShift
}
