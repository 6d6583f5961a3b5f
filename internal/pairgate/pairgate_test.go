package pairgate

import (
	"fmt"
	"strings"
	"testing"
)

// ratiosOver returns n ratios, the first over of them above budget and
// the rest below it.
func ratiosOver(n, over int, budget float64) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = budget - 0.01*float64(i+1)
		if i < over {
			r[i] = budget + 0.01*float64(i+1)
		}
	}
	return r
}

func TestJudgeNineOfTenTrips(t *testing.T) {
	if report, tripped := judge(ratiosOver(10, 9, 1.05), 1.05); !tripped {
		t.Errorf("9 of 10 over did not trip: %s", report)
	}
}

func TestJudgeEightOfTenPasses(t *testing.T) {
	if report, tripped := judge(ratiosOver(10, 8, 1.05), 1.05); tripped {
		t.Errorf("8 of 10 over tripped: %s", report)
	}
}

func TestJudgeRatioAtBudgetIsWithin(t *testing.T) {
	r := []float64{1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05, 1.05}
	if report, tripped := judge(r, 1.05); tripped || !strings.HasPrefix(report, "0 of 10 ") {
		t.Errorf("ratios equal to the budget counted as over: %s", report)
	}
}

func TestRatiosAlternateFirstSide(t *testing.T) {
	var order strings.Builder
	base := func() float64 { order.WriteByte('b'); return 2 }
	change := func() float64 { order.WriteByte('c'); return 3 }
	r := ratios(4, 2, base, change)
	if got := order.String(); got != "bcbc"+"cbcb"+"bcbc"+"cbcb" {
		t.Errorf("call order %q, want base first in even pairs, change first in odd", got)
	}
	for i, v := range r {
		if v != 1.5 {
			t.Errorf("pair %d: ratio %v, want change ÷ base = 1.5", i, v)
		}
	}
}

func TestRatiosUseEachSidesMedianCall(t *testing.T) {
	costs := func(xs ...float64) func() float64 {
		i := 0
		return func() float64 { i++; return xs[(i-1)%len(xs)] }
	}
	// One slow call a side does not move the median.
	r := ratios(1, 3, costs(10, 100, 10), costs(12, 12, 500))
	if len(r) != 1 || r[0] != 1.2 {
		t.Errorf("ratios %v, want the median calls' 12 ÷ 10", r)
	}
}

func TestJudgeReportCarriesEveryRatio(t *testing.T) {
	r := ratiosOver(10, 3, 1.03)
	report, _ := judge(r, 1.03)
	for i, v := range r {
		if s := fmt.Sprintf("%.3f", v); !strings.Contains(report, s) {
			t.Errorf("report lacks pair %d's ratio %s: %s", i, s, report)
		}
	}
	if !strings.HasPrefix(report, "3 of 10 ") {
		t.Errorf("report does not lead with the over-budget count: %s", report)
	}
}

func TestRunPassesAndTimedCountsCalls(t *testing.T) {
	calls := 0
	side := Timed(func() { calls++ })
	Run(t, 1e9, 3, side, side)
	if calls != 3*2*Pairs {
		t.Errorf("%d calls, want 3 a side over %d pairs", calls, Pairs)
	}
}
