// Package pairgate holds the paired overhead gates' pairing loop and trip
// rule. A gate measures a base side and a change side in alternating
// pairs on one host in one process, so drift shared by both sides cancels
// in each pair's ratio. It fails only when at least nine tenths of the
// ratios exceed the budget, the claim rule's count: a regression outside
// the run-to-run band trips it, and a few noisy pairs inside the band do
// not.
//
// The gates are Benchmark…Gate functions in the packages whose code they
// guard, run once by scripts/verify.sh (-benchtime 1x), so `go test ./...`
// times nothing.
package pairgate

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// Pairs is the number of base/change pairs a gate runs.
const Pairs = 10

// ratios runs n pairs of k calls a side and returns each pair's change ÷
// base ratio of the sides' median call costs. Within a pair the sides
// alternate call by call, so a slowdown of the shared host that outlasts
// a call hits both sides; even pairs start with the base side and odd
// pairs with the change side.
func ratios(n, k int, base, change func() float64) []float64 {
	out := make([]float64, n)
	bs, cs := make([]float64, k), make([]float64, k)
	for i := range out {
		for j := range k {
			if i%2 == 0 {
				bs[j] = base()
				cs[j] = change()
			} else {
				cs[j] = change()
				bs[j] = base()
			}
		}
		out[i] = median(cs) / median(bs)
	}
	return out
}

// median sorts xs and returns its middle element (the upper one of two).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// judge applies the trip rule: it trips when at least nine tenths of the
// ratios exceed budget. A ratio equal to the budget is within it. The
// report carries every ratio, sorted, and the over-budget count.
func judge(ratios []float64, budget float64) (report string, tripped bool) {
	over := 0
	for _, r := range ratios {
		if r > budget {
			over++
		}
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	report = fmt.Sprintf("%d of %d pairs over budget %g; ratios %.3f", over, len(ratios), budget, sorted)
	return report, 10*over >= 9*len(ratios)
}

// Run runs Pairs pairs of k calls a side and fails tb when the trip rule
// holds. It logs the report either way, so a passing gate shows its band.
func Run(tb testing.TB, budget float64, k int, base, change func() float64) {
	tb.Helper()
	report, tripped := judge(ratios(Pairs, k, base, change), budget)
	if tripped {
		tb.Fatal(report)
	}
	tb.Log(report)
}

// Timed returns a side whose cost is one call of f, in nanoseconds.
func Timed(f func()) func() float64 {
	return func() float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
}
