package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten, 0.5, 5},   // rank ceil(5) = 5
		{ten, 0.51, 6},  // rank ceil(5.1) = 6
		{ten, 0.9, 9},   // rank 9
		{ten, 0.99, 10}, // rank ceil(9.9) = 10
		{ten, 0, 1},     // clamped to rank 1
		{ten, 1, 10},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	// q·n that is whole in exact arithmetic must not round up a rank.
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got := quantile(thousand, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted input = %v, want 2", got)
	}
	if got := median([]float64{9, 1, 4, 2}); got != 3 {
		t.Errorf("median of an even count = %v, want the middle mean 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{100, 0.9, 10},
		{99, 0.9, 9},
		{9000, 0.99, 90},
		{600_000, 0.99, 6000},
		{0, 0.99, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got, want := tailReportable(c.n, c.q), c.want >= 10; got != want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", c.n, c.q, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	// (37.5 - 12.5) / median 25, as Python computes it.
	if got := spread([]float64{10, 20, 30, 40}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// noisy draws n run results around center with the given relative noise,
// the shape of a benchmark metric on a shared host.
func noisy(rng *rand.Rand, n int, center, rel float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + rel*rng.NormFloat64())
	}
	return out
}

func TestShiftDetection(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parent := noisy(rng, 10, 100, 0.03)
		same := noisy(rng, 10, 100, 0.03)
		slower := noisy(rng, 10, 115, 0.03)
		faster := noisy(rng, 10, 100/1.15, 0.03)

		if v := compareRuns(parent, same, true); v != noShift {
			t.Errorf("seed %d: two draws of the same noise read %v", seed, v)
		}
		if v := compareRuns(parent, slower, true); v != worse {
			t.Errorf("seed %d: a 15%% slowdown read %v", seed, v)
		}
		if v := compareRuns(parent, faster, true); v != better {
			t.Errorf("seed %d: a 15%% speed-up read %v", seed, v)
		}
		// For a higher-is-better metric the same shift flips meaning.
		if v := compareRuns(parent, slower, false); v != better {
			t.Errorf("seed %d: a 15%% rise in a higher-is-better metric read %v", seed, v)
		}
	}
}

func TestShiftInsideSpreadIsNotClaimed(t *testing.T) {
	// The change wins every pair, but by less than the parent's own
	// quartile distance: the rule must not call that a gain.
	parent := []float64{100, 90, 110, 95, 105, 92, 108, 97, 103, 100}
	change := make([]float64, len(parent))
	for i, v := range parent {
		change[i] = v - 1
	}
	if v := compareRuns(parent, change, true); v != noShift {
		t.Errorf("a 1%% shift inside a 10%% spread read %v", v)
	}
}
