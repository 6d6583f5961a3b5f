// Package bench provides one testing.B benchmark per paper artifact
// (DESIGN.md §3): each benchmark regenerates its table/figure at a reduced
// scale and reports wall time, so `go test -bench=. -benchmem` exercises
// the entire reproduction pipeline. Full-scale artifacts come from
// `go run ./cmd/experiments -run all`.
package bench

import (
	"math/rand"
	"testing"

	"voyager/internal/experiments"
	"voyager/internal/nn"
	"voyager/internal/prefetch/isb"
	"voyager/internal/prefetch/stms"
	"voyager/internal/sim"
	"voyager/internal/tensor"
	"voyager/internal/trace"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

// benchOpts returns a small but non-trivial harness scale: big enough that
// the shapes (who wins) are visible, small enough to run in seconds.
func benchOpts(benches ...string) experiments.Options {
	o := experiments.TestOptions()
	o.Accesses = 12_000
	o.Benchmarks = benches
	return o
}

func BenchmarkTable2Stats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("astar", "bfs", "cc", "pr"))
		if got := r.Table2(); len(got.Rows) != 4 {
			b.Fatalf("rows = %d", len(got.Rows))
		}
	}
}

func BenchmarkFigure5Accuracy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("cc"))
		if s := r.Main().Figure5(); s == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure6Coverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("soplex"))
		if s := r.Main().Figure6(); s == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure7Unified(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("search"))
		if f := r.Figure7(); len(f.Rows) != 1 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkFigure8IPC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("mcf"))
		if s := r.Main().Figure8(); s == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure9Degree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("cc"))
		if f := r.Figure9(); len(f.Degrees) != 4 {
			b.Fatal("degrees")
		}
	}
}

func BenchmarkFigure1011Breakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("mcf"))
		if f := r.Figure1011(); len(f.ISB) != 1 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkFigure12Features(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("cc"))
		if f := r.Figure12(); len(f.Rows) != 1 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkFigure15Labels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts("cc"))
		if f := r.Figure15(); len(f.Rows) != 1 {
			b.Fatal("rows")
		}
	}
}

func BenchmarkFigure17Overhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts())
		if f := r.Figure17(); f.VoyagerFP32 == 0 {
			b.Fatal("sizes")
		}
	}
}

func BenchmarkDeltaStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRun(benchOpts())
		if d := r.DeltaStudy(); d.With.Benchmark == "" {
			b.Fatal("empty")
		}
	}
}

// --- Component micro-benchmarks -------------------------------------------

func ccTrace(b *testing.B, n int) *trace.Trace {
	b.Helper()
	tr, err := workloads.Generate("cc", workloads.Config{Seed: 1, Scale: 1, MaxAccesses: n})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ccTrace(b, 20_000)
	}
}

func BenchmarkSimulatorNoPrefetch(b *testing.B) {
	b.ReportAllocs()
	tr := ccTrace(b, 20_000)
	cfg := sim.ScaledConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(tr, isb.NewIdeal(1), cfg)
	}
}

func BenchmarkTablePrefetcherAccess(b *testing.B) {
	b.ReportAllocs()
	tr := ccTrace(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stms.New(1)
		for j, a := range tr.Accesses {
			p.Access(j, a)
		}
	}
}

func BenchmarkVoyagerTrainSmall(b *testing.B) {
	b.ReportAllocs()
	tr := ccTrace(b, 6_000)
	cfg := voyager.FastConfig()
	cfg.EpochAccesses = 1_500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := voyager.Train(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Data-parallel engine benchmarks --------------------------------------
//
// One LSTM step, a TrainBatch optimizer step at Workers=1 and at the auto
// width, a predict pass and the Figure-5 pipeline at the auto width, for
// `go test -bench` sweeps alongside the artifact benchmarks. The matmul
// kernels' benchmarks live with the kernels, in internal/tensor.

func BenchmarkLSTMStep(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	lstm := nn.NewLSTM("bench", 256, 256, rng)
	x := tensor.NewMat(64, 256)
	x.Uniform(rng, 1)
	// Long-lived tape + Reset is the production pattern: after the first
	// iteration warms the arena, steady-state steps are allocation-free.
	tp := tensor.NewTape()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		lstm.Step(tp, tp.Const(x), lstm.ZeroState(tp, 64))
	}
}

func trainHarness(b *testing.B, workers int) *voyager.BenchHarness {
	b.Helper()
	tr := ccTrace(b, 12_000)
	cfg := voyager.ScaledConfig()
	cfg.Workers = workers
	h, err := voyager.NewBenchHarness(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkTrainBatchSerial(b *testing.B) {
	b.ReportAllocs()
	h := trainHarness(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.TrainStep()
	}
}

func BenchmarkTrainBatchParallel(b *testing.B) {
	b.ReportAllocs()
	h := trainHarness(b, voyager.WorkersAuto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.TrainStep()
	}
}

func BenchmarkPredictBatchParallel(b *testing.B) {
	b.ReportAllocs()
	h := trainHarness(b, voyager.WorkersAuto)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PredictStep()
	}
}

func BenchmarkFigure5Parallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := benchOpts("cc")
		o.Workers = voyager.WorkersAuto
		r := experiments.NewRun(o)
		if s := r.Main().Figure5(); s == "" {
			b.Fatal("empty")
		}
	}
}
