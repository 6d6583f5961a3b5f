package voyager

import (
	"fmt"

	"voyager/internal/nn"
	"voyager/internal/trace"
)

// BenchHarness holds a model bound to a trace plus one representative
// prepared minibatch, so benchmarks (bench_test.go, perfbench's
// offline-train workload, the paired overhead gates) can time TrainBatch /
// PredictBatch steps without the online protocol's epoch machinery around
// them.
type BenchHarness struct {
	p   *Predictor
	opt *nn.Adam

	seqs             []batchToken
	pagePos, offPos  [][]int
	pageW, offW      [][]float32
	predictPositions []int
}

// NewBenchHarness prepares a full BatchSize minibatch of learnable triggers
// from the trace.
func NewBenchHarness(tr *trace.Trace, cfg Config) (*BenchHarness, error) {
	p, err := newPredictor(tr, cfg)
	if err != nil {
		return nil, err
	}
	var positions []int
	for t := cfg.SeqLen; t < tr.Len() && len(positions) < cfg.BatchSize; t++ {
		if pagePos, _, _, _ := p.labelTokens(t); len(pagePos) > 0 {
			positions = append(positions, t)
		}
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("voyager: trace has no learnable positions")
	}
	h := &BenchHarness{
		p:                p,
		opt:              nn.NewAdam(cfg.LearningRate),
		seqs:             cloneBatch(p.buildBatch(positions)),
		pagePos:          make([][]int, len(positions)),
		offPos:           make([][]int, len(positions)),
		pageW:            make([][]float32, len(positions)),
		offW:             make([][]float32, len(positions)),
		predictPositions: positions,
	}
	for b, pos := range positions {
		h.pagePos[b], h.offPos[b], h.pageW[b], h.offW[b] = p.labelTokens(pos)
	}
	return h, nil
}

// cloneBatch deep-copies a batch: buildBatch returns the predictor's
// reusable scratch, and the harness must keep its minibatch stable across
// arbitrarily many steps.
func cloneBatch(seqs []batchToken) []batchToken {
	out := make([]batchToken, len(seqs))
	for i, s := range seqs {
		out[i] = batchToken{
			pc:   append([]int(nil), s.pc...),
			page: append([]int(nil), s.page...),
			off:  append([]int(nil), s.off...),
		}
	}
	return out
}

// BatchRows returns the number of rows in the prepared minibatch.
func (h *BenchHarness) BatchRows() int { return len(h.predictPositions) }

// TrainStep runs one full optimizer step (forward, backward, Adam) on the
// prepared minibatch and returns the batch loss.
func (h *BenchHarness) TrainStep() float32 {
	loss := h.p.Model.TrainBatch(h.seqs, h.pagePos, h.offPos, h.pageW, h.offW)
	h.opt.Step(h.p.Model.Params().All())
	return loss
}

// PredictStep runs one inference pass over the prepared minibatch at the
// configured degree and returns the candidate count of the first row.
func (h *BenchHarness) PredictStep() int {
	out := h.p.Model.PredictBatch(h.seqs, h.p.Cfg.Degree)
	return len(out[0])
}
