package serve

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"voyager/internal/distill"
	"voyager/internal/trace"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

// The shared serving fixture: one small model trained once per test binary
// on a real generated workload, its distilled table, and the offline oracle
// answers (PredictAt over every position). Training dominates the package's
// test time, so every test reuses this.
//
// A server runs one batcher per CPU, each on its own inference worker: the
// model or one of its replicas, each with its own tape arena. So two
// servers must not share a *Model at once, and no offline PredictAt may run
// while one serves it. The fixture therefore precomputes the oracle before
// any server starts, and tests run servers one at a time. fx.m4 is a
// Workers=4 clone: serving it catches a PredictTokenBatch that still shards
// its batch across replicas that belong to other batchers.
var fx struct {
	once sync.Once
	err  error

	tr     *trace.Trace
	p      *voyager.Predictor
	degree int
	want   [][]voyager.Candidate // oracle: PredictAt per position
	tab    *distill.Table
	m4     *voyager.Model // same weights, Workers=4
}

const fxAccesses = 1200

func fixture(t testing.TB) {
	t.Helper()
	fx.once.Do(func() {
		tr, err := workloads.Generate("cc", workloads.Config{Seed: 7, Scale: 1, MaxAccesses: fxAccesses})
		if err != nil {
			fx.err = err
			return
		}
		cfg := voyager.FastConfig()
		cfg.Seed = 11
		cfg.Workers = 1
		cfg.Degree = 2
		cfg.DropoutKeep = 1
		cfg.EpochAccesses = len(tr.Accesses) // one epoch over the whole trace
		cfg.PassesPerEpoch = 1
		p, err := voyager.Train(tr, cfg)
		if err != nil {
			fx.err = err
			return
		}
		fx.tr, fx.p, fx.degree = tr, p, cfg.Degree

		positions := make([]int, p.NumAccesses())
		for i := range positions {
			positions[i] = i
		}
		fx.want = p.PredictAt(positions, fx.degree)

		fx.tab = distill.Compile(p, 0, p.NumAccesses(), distill.DefaultParams())

		// A second model with the same weights but Workers=4, via a
		// save/load round trip (the serialized format is config-agnostic
		// about Workers).
		var buf bytes.Buffer
		if err := p.SaveWeights(&buf); err != nil {
			fx.err = err
			return
		}
		cfg4 := cfg
		cfg4.Workers = 4
		m4 := voyager.NewModel(cfg4, p.Model.Vocab())
		if err := m4.LoadWeights(&buf); err != nil {
			fx.err = err
			return
		}
		fx.m4 = m4
	})
	if fx.err != nil {
		t.Fatalf("fixture: %v", fx.err)
	}
}

// setProcs sets GOMAXPROCS, and with it the number of batchers a server
// started afterwards runs, and restores it when the test ends, after the
// Close that startServer registered later has run.
func setProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// wantResponse builds the expected wire candidates for trigger position pos
// from the oracle.
func wantResponse(pos int) []Candidate {
	line := fx.p.LineAt(pos)
	var out []Candidate
	for _, c := range fx.want[pos] {
		addr := uint64(0)
		if ln, ok := fx.p.Model.Vocab().Decode(line, c.PageTok, c.OffTok); ok {
			addr = ln << trace.LineBits
		}
		out = append(out, Candidate{
			PageTok:   int32(c.PageTok),
			OffTok:    int32(c.OffTok),
			ScoreBits: math.Float64bits(c.Score),
			Addr:      addr,
		})
	}
	return out
}
