package experiments

import (
	"strings"
	"testing"
)

// The experiment harness is exercised end-to-end at TestOptions scale with
// a two-benchmark subset; the full-scale run is driven by cmd/experiments
// and bench_test.go.

func smallRun(benches ...string) *Run {
	o := TestOptions()
	o.Benchmarks = benches
	return NewRun(o)
}

// The scaled column shows the configuration the run trains: -hidden's units
// and no dropout, not ScaledConfig's defaults (32 units, keep 0.8).
func TestTable1String(t *testing.T) {
	s := NewRun(Options{Hidden: 48}).Table1()
	for _, want := range []string{"Sequence length", "25600", "Adam",
		"Page and offset LSTM # units           256          48\n",
		"Dropout keep ratio                     0.8          1\n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	r := smallRun("bfs", "soplex")
	res := r.Table2()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s := res.String()
	if !strings.Contains(s, "bfs") || !strings.Contains(s, "soplex") {
		t.Fatalf("Table2 output missing benchmarks:\n%s", s)
	}
}

func TestTable3(t *testing.T) {
	s := Table3()
	for _, want := range []string{"512 KB", "2 MB", "tRP=tRCD=tCAS=20"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, s)
		}
	}
}

func TestMainAndDerivedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("trains neural models")
	}
	r := smallRun("bfs", "soplex")
	m := r.Main()
	if len(m.Rows) != 2 {
		t.Fatalf("main rows = %d", len(m.Rows))
	}
	for _, row := range m.Rows {
		if row.BaseIPC <= 0 {
			t.Fatalf("%s: base IPC %v", row.Benchmark, row.BaseIPC)
		}
		if row.OracleSpeedup <= 1.0 {
			t.Fatalf("%s: oracle speedup %v should exceed 1 (irregular benchmark criterion)",
				row.Benchmark, row.OracleSpeedup)
		}
		for _, p := range BaselineNames {
			res, ok := row.Results[p]
			if !ok {
				t.Fatalf("%s missing prefetcher %s", row.Benchmark, p)
			}
			if res.IPC <= 0 {
				t.Fatalf("%s/%s: IPC %v", row.Benchmark, p, res.IPC)
			}
			if a := res.Accuracy(); a < 0 || a > 1 {
				t.Fatalf("%s/%s: accuracy %v", row.Benchmark, p, a)
			}
			if c := res.Coverage(); c < 0 || c > 1 {
				t.Fatalf("%s/%s: coverage %v", row.Benchmark, p, c)
			}
		}
	}
	for _, s := range []string{m.Figure5(), m.Figure6(), m.Figure8()} {
		if !strings.Contains(s, "bfs") || !strings.Contains(s, "mean") {
			t.Fatalf("figure output malformed:\n%s", s)
		}
	}
	// Main() is cached.
	if r.Main() != m {
		t.Fatalf("Main not cached")
	}
}

func TestFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("trains neural models")
	}
	r := smallRun("cc", "search")
	f := r.Figure7()
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, row := range f.Rows {
		for _, p := range BaselineNames {
			v, ok := row.Values[p]
			if !ok || v < 0 || v > 1 {
				t.Fatalf("%s/%s unified %v ok=%v", row.Benchmark, p, v, ok)
			}
		}

	}
	if !strings.Contains(f.String(), "Figure 7") {
		t.Fatalf("missing title")
	}
}

func TestFigure9DegreeMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains neural models")
	}
	r := smallRun("cc")
	f := r.Figure9()
	for _, p := range []string{"voyager", "isb", "isb+bo"} {
		series := f.Coverage[p]
		if len(series) != 4 {
			t.Fatalf("%s series length %d", p, len(series))
		}
		// Coverage must not collapse as degree grows (allow small noise).
		if series[3] < series[0]-0.05 {
			t.Fatalf("%s coverage degraded with degree: %v", p, series)
		}
	}
	if !strings.Contains(f.String(), "degree") {
		t.Fatalf("missing header")
	}
}

func TestFigure1011(t *testing.T) {
	if testing.Short() {
		t.Skip("trains neural models")
	}
	r := smallRun("mcf")
	f := r.Figure1011()
	if len(f.ISB) != 1 || len(f.Voyager) != 1 {
		t.Fatalf("unexpected row counts")
	}
	for _, rows := range [][]int{} {
		_ = rows
	}
	sum := 0.0
	for _, v := range f.ISB[0].Frac {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("ISB breakdown fractions sum to %v", sum)
	}
	// mcf has fresh regions: the w/o-delta model must leave compulsory
	// misses uncovered.
	if f.Voyager[0].Frac[4] == 0 {
		t.Fatalf("expected compulsory bucket on mcf w/o delta")
	}
	if !strings.Contains(f.String(), "Figure 10") {
		t.Fatalf("missing title")
	}
}

func TestFigure12And15(t *testing.T) {
	if testing.Short() {
		t.Skip("trains many neural models")
	}
	r := smallRun("cc")
	f12 := r.Figure12()
	if len(f12.Rows) != 1 {
		t.Fatalf("f12 rows")
	}
	if !strings.Contains(f12.String(), "voy-global") {
		t.Fatalf("f12 output")
	}
	f15 := r.Figure15()
	if len(f15.Rows) != 1 || len(f15.Rows[0].Values) != 6 {
		t.Fatalf("f15 shape: %+v", f15.Rows)
	}
	if !strings.Contains(f15.String(), "multi-label") {
		t.Fatalf("f15 output")
	}
}

func TestFigure17AndDeltaStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("trains neural models")
	}
	r := smallRun() // uses CostBenchmark (pr) and mcf internally
	f := r.Figure17()
	if f.VoyagerFP32 <= 0 || f.DeltaLSTMFP32 <= 0 {
		t.Fatalf("sizes: %+v", f)
	}
	if f.VoyagerPruned8b >= f.VoyagerFP32 {
		t.Fatalf("compression did not shrink: %d -> %d", f.VoyagerFP32, f.VoyagerPruned8b)
	}
	if f.VoyagerMACs <= 0 || f.DeltaLSTMMACs <= 0 {
		t.Fatalf("MACs: %+v", f)
	}
	if !strings.Contains(f.String(), "storage efficiency") {
		t.Fatalf("f17 output")
	}
	d := r.DeltaStudy()
	if !strings.Contains(d.String(), "compulsory") {
		t.Fatalf("delta study output")
	}
	// The delta vocabulary must reduce mcf's uncovered-compulsory share.
	if d.With.Frac[4] > d.Without.Frac[4] {
		t.Fatalf("deltas increased compulsory share: %v -> %v", d.Without.Frac[4], d.With.Frac[4])
	}
}
