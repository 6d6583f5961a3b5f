package experiments

import (
	"fmt"
	"strings"
	"testing"

	"voyager/internal/distill"
	"voyager/internal/eval"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/trace"
	"voyager/internal/voyager"
)

// distillSweepLog2s are the full-context table sizes the differential
// harness sweeps (buckets = 1<<log2; bytes ≈ (1+TopK)·8·buckets plus the
// Markov fallback).
var distillSweepLog2s = []int{10, 12, 14, 16}

// distilledFor compiles (once) the distilled fast-path predictor for a
// benchmark — default table parameters, calibrated over the benchmark's
// whole stream from the cached degree-8 Voyager teacher — and replays it
// online over the stream, returning per-stream-access predictions.
func (r *Run) distilledFor(name string) [][]uint64 {
	r.cache.mu.Lock()
	if p, ok := r.cache.distilled[name]; ok {
		r.cache.mu.Unlock()
		return p
	}
	r.cache.mu.Unlock()

	vp := r.voyagerFor(name)
	st := r.streamFor(name)
	r.Opts.logf("  distilling voyager on %s...", name)
	tab := distill.Compile(vp, 0, vp.NumAccesses(), distill.DefaultParams())
	pf, err := distilled.New(tab, vp.Model.Vocab(), 8)
	if err != nil {
		panic(err)
	}
	preds := eval.CollectPredictions(st.Trace, pf)
	r.cache.mu.Lock()
	r.cache.distilled[name] = preds
	r.cache.mu.Unlock()
	return preds
}

// DistillPoint is one (benchmark × table size) cell of the differential
// harness: the distilled table against its fp32 teacher on the
// calibration-held-out half of the stream.
type DistillPoint struct {
	Benchmark   string
	Log2Buckets int
	TableBytes  int
	Keys        int
	MarkovKeys  int
	Top1VsFP32  float64
	NsPerPred   int64
}

// heldOutPositions samples up to 2048 trigger positions, evenly strided,
// from the held-out half [n/2, n) of a stream.
func heldOutPositions(n int) []int {
	lo := n / 2
	if lo >= n {
		return nil
	}
	stride := (n - lo) / 2048
	if stride < 1 {
		stride = 1
	}
	out := make([]int, 0, (n-lo)/stride+1)
	for i := lo; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

// nsPerOp times fn with the standard bench machinery.
func nsPerOp(fn func(b *testing.B)) int64 {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return res.NsPerOp()
}

// replayNsPerPred times the online distilled replay over the stream (one
// Access per op, wrapping with a Reset at the end of the trace).
func replayNsPerPred(pf *distilled.Prefetcher, tr *trace.Trace) int64 {
	accs := tr.Accesses
	idx := 0
	return nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pf.Access(idx, accs[idx])
			idx++
			if idx == len(accs) {
				idx = 0
				pf.Reset()
			}
		}
	})
}

// sweepDistill measures the size/accuracy/latency frontier for one trained
// teacher: each table size is compiled on the first half of the stream,
// scored against the teacher on the held-out second half
// (distill.Agreement), then timed replaying online. Returns the sweep
// points plus the teacher's per-prediction inference cost (batched at the
// model's batch width, amortized per row).
func sweepDistill(p *voyager.Predictor, tr *trace.Trace, log2s []int) (pts []DistillPoint, fp32Ns int64) {
	n := p.NumAccesses()
	half := n / 2
	held := heldOutPositions(n)

	// Teacher cost per prediction: one full PredictAt batch, amortized.
	width := p.Cfg.BatchSize
	if width > len(held) {
		width = len(held)
	}
	batch := held[:width]
	fp32Ns = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PredictAt(batch, 1)
		}
	}) / int64(width)

	for _, lg := range log2s {
		prm := distill.DefaultParams()
		prm.Log2Buckets = lg
		if prm.MarkovLog2 > lg {
			prm.MarkovLog2 = lg
		}
		tab := distill.Compile(p, 0, half, prm)
		pf, err := distilled.New(tab, p.Model.Vocab(), 1)
		if err != nil {
			panic(err)
		}
		st := tab.Stats()
		pts = append(pts, DistillPoint{
			Log2Buckets: lg,
			TableBytes:  st.Bytes,
			Keys:        st.Keys,
			MarkovKeys:  st.MarkovKeys,
			Top1VsFP32:  distill.Agreement(p, tab, held),
			NsPerPred:   replayNsPerPred(pf, tr),
		})
	}
	return pts, fp32Ns
}

// DistillResult is the cmd/experiments "distill" artifact: the differential
// harness over the ablation benchmarks.
type DistillResult struct {
	Rows []DistillPoint
	// TeacherNs records, per benchmark, the teacher's amortized
	// per-prediction inference cost for context.
	TeacherNs map[string]int64
}

// DistillStudy sweeps table size vs. top-1 agreement with the teacher vs.
// ns/prediction, with each ablation benchmark's trained Voyager as the
// teacher.
func (r *Run) DistillStudy() *DistillResult {
	res := &DistillResult{TeacherNs: map[string]int64{}}
	for _, name := range r.Opts.benchList(AblationBenchmarks) {
		vp := r.voyagerFor(name)
		st := r.streamFor(name)
		r.Opts.logf("distill study: %s", name)
		pts, fp32Ns := sweepDistill(vp, st.Trace, distillSweepLog2s)
		for _, p := range pts {
			p.Benchmark = name
			res.Rows = append(res.Rows, p)
		}
		res.TeacherNs[name] = fp32Ns
	}
	return res
}

// String renders the differential table.
func (d *DistillResult) String() string {
	var b strings.Builder
	b.WriteString("Distillation: table size vs top-1 agreement vs ns/prediction\n")
	fmt.Fprintf(&b, "  %-10s %6s %10s %8s %8s %10s %12s\n",
		"benchmark", "log2", "bytes", "keys", "markov", "vs_fp32", "ns/pred")
	last := ""
	for _, p := range d.Rows {
		name := p.Benchmark
		if name == last {
			name = ""
		} else {
			last = p.Benchmark
		}
		fmt.Fprintf(&b, "  %-10s %6d %10d %8d %8d %10.3f %12d\n",
			name, p.Log2Buckets, p.TableBytes, p.Keys, p.MarkovKeys,
			p.Top1VsFP32, p.NsPerPred)
	}
	// Stable teacher-cost footer ordered by the row order above.
	seen := map[string]bool{}
	for _, p := range d.Rows {
		if seen[p.Benchmark] {
			continue
		}
		seen[p.Benchmark] = true
		fmt.Fprintf(&b, "  teacher %-10s fp32 %8d ns/pred\n",
			p.Benchmark, d.TeacherNs[p.Benchmark])
	}
	return b.String()
}
