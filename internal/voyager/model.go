package voyager

import (
	"math"
	"math/rand"

	"voyager/internal/metrics"
	"voyager/internal/nn"
	"voyager/internal/tensor"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
)

// Model is the Voyager network (Figure 2): three embedding tables, the
// page-aware offset attention layer, two single-layer LSTMs (page and
// offset), and two linear prediction heads.
type Model struct {
	cfg Config
	voc *vocab.Vocab

	pcEmb   *nn.Embedding // PCTokens × PCEmbed
	pageEmb *nn.Embedding // PageTokens × PageEmbed
	offEmb  *nn.Embedding // OffsetTokens × (Experts·PageEmbed)

	pageLSTM *nn.LSTM
	offLSTM  *nn.LSTM
	pageHead *nn.Linear
	offHead  *nn.Linear

	params nn.ParamSet

	// rng is worker 0's random stream. It is seeded with cfg.Seed and first
	// consumed by parameter initialization, then by worker 0's dropout masks
	// and negative sampling — exactly the seed implementation's single
	// stream, which keeps serial training bit-identical.
	rng *rand.Rand

	// replicas are the data-parallel workers 1..Workers-1: lightweight
	// shadow models sharing this model's weights but owning their gradient
	// buffers and RNG streams (seeded cfg.Seed+workerID). Built lazily on
	// the first sharded batch, or by InferenceWorkers for serving.
	replicas []*Model

	// tape is this worker's long-lived autodiff tape and memory arena:
	// trainShard/predictShard Reset it instead of building a fresh tape, so
	// steady-state steps recycle every node, value and gradient matrix.
	// Replicas each own theirs, which keeps the arena race-free without
	// locking.
	tape *tensor.Tape

	// obs is the shared training-observability bundle (never nil; inert when
	// metrics are disabled). shardSec is this worker's own shard-timing
	// histogram, looked up once so the hot path never formats a name.
	obs      *trainObs
	shardSec *metrics.Histogram

	// spans is the shared span-track bundle (never nil; inert when tracing
	// is disabled) and tk this worker's own timeline row, looked up once
	// like shardSec.
	spans *trainSpans
	tk    *tracing.Track

	// xs holds the current batch's LSTM inputs x_0..x_{T-1} (tape nodes)
	// while chainBody records the two chains over them on child tapes;
	// chainH receives each chain's last hidden state. chainBody is the
	// method value m.runChain, bound once so a fork allocates no closure.
	xs        []*tensor.Node
	chainH    [2]*tensor.Node
	chainBody func(i int, c *tensor.Tape)

	// Scratch buffers reused across batches by samplePageCols and topK;
	// per-worker like the tape.
	colOf      map[int]int
	colsBuf    []int
	remapBuf   [][]int
	remapRows  [][]int
	pageScored []scored
	offScored  []scored
}

// NewModel builds a Voyager model for the given vocabulary.
func NewModel(cfg Config, voc *vocab.Vocab) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, voc: voc, rng: rng, tape: tensor.NewTape()}
	m.obs = newTrainObs(cfg.Metrics)
	m.shardSec = m.obs.shardHist(0)
	m.spans = newTrainSpans(cfg.Trace)
	m.tk = m.spans.workerTrack(0)
	m.tape.Track = m.tk
	m.chainBody = m.runChain
	m.pcEmb = nn.NewEmbedding("emb.pc", voc.PCTokens(), cfg.PCEmbed, rng)
	m.pageEmb = nn.NewEmbedding("emb.page", voc.PageTokens(), cfg.PageEmbed, rng)
	m.offEmb = nn.NewEmbedding("emb.offset", vocab.OffsetTokens, cfg.OffsetEmbed(), rng)
	m.pageLSTM = nn.NewLSTM("lstm.page", cfg.InputDim(), cfg.Hidden, rng)
	m.offLSTM = nn.NewLSTM("lstm.offset", cfg.InputDim(), cfg.Hidden, rng)
	m.pageLSTM.Unfused = cfg.UnfusedLSTM
	m.offLSTM.Unfused = cfg.UnfusedLSTM
	headIn := cfg.Hidden
	if cfg.HeadSkip {
		headIn += cfg.InputDim()
	}
	m.pageHead = nn.NewLinear("head.page", headIn, voc.PageTokens(), rng)
	m.offHead = nn.NewLinear("head.offset", headIn, vocab.OffsetTokens, rng)

	m.params.Add(m.pcEmb.Table, m.pageEmb.Table, m.offEmb.Table)
	m.params.Add(m.pageLSTM.Params()...)
	m.params.Add(m.offLSTM.Params()...)
	m.params.Add(m.pageHead.Params()...)
	m.params.Add(m.offHead.Params()...)
	return m
}

// Params exposes the trainable parameters (for optimizers, compression and
// cost accounting).
func (m *Model) Params() *nn.ParamSet { return &m.params }

// workerCount resolves the configured data-parallel width for a batch of
// the given number of rows. Shards are never smaller than one row.
func (m *Model) workerCount(batch int) int {
	w := m.cfg.Workers
	if w == WorkersAuto {
		w = tensor.PoolWorkers()
	}
	if w < 1 {
		w = 1
	}
	if w > batch {
		w = batch
	}
	return w
}

// newReplica builds the shadow model for worker id (1-based): it shares the
// master's weights and vocabulary, owns its gradient buffers (allocated by
// its first training batch, so serving replicas carry none), and draws
// dropout masks and negative samples from an independent stream seeded
// Seed+id so shards never contend on — or reorder draws from — a shared RNG.
func (m *Model) newReplica(id int) *Model {
	r := &Model{
		cfg:      m.cfg,
		voc:      m.voc,
		rng:      rand.New(rand.NewSource(m.cfg.Seed + int64(id))),
		tape:     tensor.NewTape(),
		obs:      m.obs,
		shardSec: m.obs.shardHist(id),
		spans:    m.spans,
	}
	r.tk = m.spans.workerTrack(id)
	r.tape.Track = r.tk
	r.chainBody = r.runChain
	r.pcEmb = m.pcEmb.ShadowClone()
	r.pageEmb = m.pageEmb.ShadowClone()
	r.offEmb = m.offEmb.ShadowClone()
	r.pageLSTM = m.pageLSTM.ShadowClone()
	r.offLSTM = m.offLSTM.ShadowClone()
	r.pageHead = m.pageHead.ShadowClone()
	r.offHead = m.offHead.ShadowClone()
	// Same registration order as NewModel so replica params align with the
	// master set index-for-index during the ordered gradient reduce.
	r.params.Add(r.pcEmb.Table, r.pageEmb.Table, r.offEmb.Table)
	r.params.Add(r.pageLSTM.Params()...)
	r.params.Add(r.offLSTM.Params()...)
	r.params.Add(r.pageHead.Params()...)
	r.params.Add(r.offHead.Params()...)
	return r
}

// ensureReplicas lazily grows the replica list to serve n workers (the
// master itself is worker 0). Called before shard goroutines start, so the
// list is never mutated concurrently.
func (m *Model) ensureReplicas(n int) {
	for len(m.replicas) < n-1 {
		m.replicas = append(m.replicas, m.newReplica(len(m.replicas)+1))
	}
}

// worker returns the model that runs shard w: the master for worker 0,
// a replica otherwise.
func (m *Model) worker(w int) *Model {
	if w == 0 {
		return m
	}
	return m.replicas[w-1]
}

// shardBounds cuts batch rows into parts contiguous near-equal shards,
// returning parts+1 boundaries.
func shardBounds(batch, parts int) []int {
	b := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		b[i] = i * batch / parts
	}
	return b
}

// sliceSeqs restricts every timestep's token columns to batch rows [lo, hi).
func sliceSeqs(seqs []batchToken, lo, hi int) []batchToken {
	out := make([]batchToken, len(seqs))
	for i, s := range seqs {
		out[i] = batchToken{pc: s.pc[lo:hi], page: s.page[lo:hi], off: s.off[lo:hi]}
	}
	return out
}

// Vocab returns the model's vocabulary.
func (m *Model) Vocab() *vocab.Vocab { return m.voc }

// batchToken holds one timestep's token ids for a whole batch.
type batchToken struct {
	pc, page, off []int
}

// forceConcurrentChains makes hidden run the two LSTM chains concurrently
// whatever their size, unless the caller asked for inline. A test hook: the
// unit-test configurations' chains fall below tensor's concurrency cutoff.
var forceConcurrentChains bool

// hidden runs the network up to the two LSTM hidden states (post-dropout).
// It builds every timestep's input x_t first — lookups, offset attention,
// concatenation and dropout, timestep by timestep, so the dropout masks
// take their draws from m.rng in order and the embedding gradients still
// accumulate from step T-1 down to 0 — and then forks: the page LSTM runs
// over x_0..x_{T-1} on child tape 0 and the offset LSTM on child 1. Each
// chain reads each x_t once (LSTM.Step), so the join adds their input
// gradients with the bits of one tape recording the two steps of each
// timestep, page first (tensor.Tape.Fork). The chains run concurrently
// when they are large enough to pay for a goroutine start, unless inline
// is set: callers that already spread work over every CPU (data-parallel
// shards, serving's one batcher per CPU) run them one after the other.
func (m *Model) hidden(tp *tensor.Tape, seqs []batchToken, train, inline bool) (ph, oh *tensor.Node) {
	xs := m.xs[:0]
	var lastX *tensor.Node
	for _, tok := range seqs {
		pageE := m.pageEmb.Lookup(tp, tok.page)
		offE := m.offEmb.Lookup(tp, tok.off)
		var offAware *tensor.Node
		if m.cfg.PageAwareOffsets {
			// Page-aware offset embedding (Eq. 9-10): the page embedding
			// queries the offset's expert chunks.
			offAware, _ = tp.MoEAttention(pageE, offE, m.cfg.AttnScale)
		} else {
			// Ablation: the naive decomposition — a page-agnostic shared
			// offset embedding (the first expert chunk), which aliases
			// identical offsets across pages (§4.2.1).
			offAware = tp.SliceCols(offE, 0, m.cfg.PageEmbed)
		}
		var x *tensor.Node
		if m.cfg.PCUse == PCHistory {
			pcE := m.pcEmb.Lookup(tp, tok.pc)
			x = tp.ConcatCols(pcE, pageE, offAware)
		} else {
			x = tp.ConcatCols(pageE, offAware)
		}
		lastX = x
		xs = append(xs, nn.Dropout(tp, x, m.cfg.DropoutKeep, m.rng, train))
	}
	m.xs = xs
	work := 0
	if !inline {
		// One chain's forward multiply-accumulates: per step x·Wx and h·Wh.
		work = len(seqs[0].page) * (m.cfg.InputDim() + m.cfg.Hidden) * 4 * m.cfg.Hidden * len(seqs)
		if forceConcurrentChains {
			work = math.MaxInt
		}
	}
	tp.Fork(2, work, m.chainBody)
	ph, oh = m.chainH[0], m.chainH[1]
	if m.cfg.HeadSkip {
		// Skip connection: the trigger access's embeddings feed the heads
		// directly alongside the LSTM state. This gives the heads a
		// learned successor-table path (trigger token → prediction) that
		// converges orders of magnitude faster than routing all
		// memorization through a small recurrent state — compensating for
		// the scaled-down LSTM sizes (see Config.HeadSkip).
		ph = tp.ConcatCols(ph, lastX)
		oh = tp.ConcatCols(oh, lastX)
	}
	ph = nn.Dropout(tp, ph, m.cfg.DropoutKeep, m.rng, train)
	oh = nn.Dropout(tp, oh, m.cfg.DropoutKeep, m.rng, train)
	return ph, oh
}

// runChain records LSTM chain i over m.xs on child tape c: the page LSTM
// for i = 0, the offset LSTM for i = 1. The two may run concurrently, so
// each touches only its own LSTM, child tape and chainH slot.
func (m *Model) runChain(i int, c *tensor.Tape) {
	l := m.pageLSTM
	if i == 1 {
		l = m.offLSTM
	}
	s := l.ZeroState(c, m.xs[0].Val.Rows)
	for _, x := range m.xs {
		s = l.Step(c, c.Input(x), s)
	}
	m.chainH[i] = s.H
}

// TrainBatch runs one training step: forward, multi-label BCE loss on both
// heads (§4.4) with per-scheme soft targets, backward. Gradients are left
// in the params for the caller's optimizer step. Returns the summed loss.
//
// When the page vocabulary exceeds the negative-sampling threshold, the
// page head trains on the batch's positive columns plus NegSamples random
// negatives rather than the full vocabulary — the standard sampled-loss
// trick for large output spaces (the paper's §5.5 points at hierarchical
// softmax for the same cost problem).
//
// With cfg.Workers > 1 the batch is cut into contiguous row shards that run
// forward/backward concurrently, one per worker, each on its own tape,
// gradient buffers and RNG stream; shard gradients are then reduced into
// the shared params in ascending worker order (see Config.Workers).
func (m *Model) TrainBatch(seqs []batchToken, pagePos, offPos [][]int, pageW, offW [][]float32) float32 {
	batch := len(pagePos)
	n := m.workerCount(batch)
	if n <= 1 {
		loss := m.trainShard(seqs, pagePos, offPos, pageW, offW, 1, false)
		m.obs.recordTrainStep(&m.params, batch, len(seqs), loss)
		return loss
	}
	m.ensureReplicas(n)
	for _, r := range m.replicas[:n-1] {
		// A replica built for serving has no gradient buffers yet.
		for _, p := range r.params.All() {
			p.EnsureGrad()
		}
	}
	bounds := shardBounds(batch, n)
	losses := make([]float32, n)
	tensor.RunTasks(n, func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		// Each shard's loss is a mean over its own rows; the backward seed
		// frac makes shard gradients add up to the full-batch gradient, and
		// the frac-weighted losses add up to the full-batch mean loss.
		frac := float32(hi-lo) / float32(batch)
		losses[w] = frac * m.worker(w).trainShard(
			sliceSeqs(seqs, lo, hi),
			pagePos[lo:hi], offPos[lo:hi], pageW[lo:hi], offW[lo:hi], frac, true)
	})
	// Ordered reduce: worker 0 backpropagated straight into the shared
	// params; fold the replicas in ascending worker index so the float32
	// summation order — and training — is reproducible at this worker count.
	reduceSp := m.spans.main.Begin("reduce")
	defer reduceSp.End()
	master := m.params.All()
	for w := 1; w < n; w++ {
		rep := m.replicas[w-1].params.All()
		for i, p := range master {
			p.MergeGrad(rep[i])
		}
	}
	var total float32
	for _, l := range losses {
		total += l
	}
	m.obs.recordTrainStep(&m.params, batch, len(seqs), total)
	return total
}

// trainShard runs forward and backward over one shard of a batch on this
// worker's tape, RNG stream and gradient buffers. seedWeight scales the
// backward seed (1 for the serial full-batch path, the shard's row fraction
// when data-parallel) and the unweighted shard loss is returned. inline
// runs the LSTM chains one after the other (see hidden).
func (m *Model) trainShard(seqs []batchToken, pagePos, offPos [][]int, pageW, offW [][]float32, seedWeight float32, inline bool) float32 {
	shardT := metrics.StartTimer(m.shardSec)
	fwdT := metrics.StartTimer(m.obs.forwardSec)
	fwdSp := m.tk.Begin("forward")
	tp := m.tape
	tp.Reset()
	ph, oh := m.hidden(tp, seqs, true, inline)

	var pageLoss *tensor.Node
	vocabSize := m.voc.PageTokens()
	if m.cfg.NegSamples > 0 && vocabSize > 2*m.cfg.NegSamples {
		cols, remapped := m.samplePageCols(pagePos)
		logits := m.pageHead.ForwardSampled(tp, ph, cols)
		pageLoss, _ = tp.SigmoidBCEWeighted(logits, remapped, pageW)
	} else {
		logits := m.pageHead.Forward(tp, ph)
		pageLoss, _ = tp.SigmoidBCEWeighted(logits, pagePos, pageW)
	}
	offLogits := m.offHead.Forward(tp, oh)
	offLoss, _ := tp.SigmoidBCEWeighted(offLogits, offPos, offW)
	total := tp.Add(pageLoss, offLoss)
	fwdT.Stop()
	fwdSp.End()
	bwdT := metrics.StartTimer(m.obs.backwardSec)
	bwdSp := m.tk.Begin("backward")
	total.EnsureGrad().Fill(seedWeight)
	tp.BackwardFromSeed()
	bwdSp.End()
	bwdT.Stop()
	shardT.Stop()
	return total.Val.Data[0]
}

// samplePageCols builds the sampled column set (all batch positives plus
// NegSamples random negatives) and remaps the positive token ids into
// column-local indices. The returned slices are per-worker scratch reused
// across batches; they stay valid until this worker's next call.
func (m *Model) samplePageCols(pagePos [][]int) (cols []int, remapped [][]int) {
	if m.colOf == nil {
		m.colOf = make(map[int]int)
	}
	colOf := m.colOf
	clear(colOf)
	cols = m.colsBuf[:0]
	for _, row := range pagePos {
		for _, tok := range row {
			if _, ok := colOf[tok]; !ok {
				colOf[tok] = len(cols)
				cols = append(cols, tok)
			}
		}
	}
	vocabSize := m.voc.PageTokens()
	for i := 0; i < m.cfg.NegSamples; i++ {
		tok := m.rng.Intn(vocabSize)
		if _, ok := colOf[tok]; ok {
			continue
		}
		colOf[tok] = len(cols)
		cols = append(cols, tok)
	}
	m.colsBuf = cols
	for len(m.remapRows) < len(pagePos) {
		m.remapRows = append(m.remapRows, nil)
	}
	remapped = m.remapBuf[:0]
	for r, row := range pagePos {
		rr := m.remapRows[r][:0]
		for _, tok := range row {
			rr = append(rr, colOf[tok])
		}
		m.remapRows[r] = rr
		remapped = append(remapped, rr)
	}
	m.remapBuf = remapped
	return cols, remapped
}

// Candidate is one (page, offset) prediction with its joint score.
type Candidate struct {
	PageTok int
	OffTok  int
	Score   float64
}

// PredictBatch runs inference and returns, per batch row, the top-degree
// (page, offset) candidates ranked by the product of head probabilities
// (§4.1: "the page and offset pair with the highest probability").
func (m *Model) PredictBatch(seqs []batchToken, degree int) [][]Candidate {
	batch := len(seqs[0].page)
	n := m.workerCount(batch)
	if n <= 1 {
		return m.predictShard(seqs, degree, false)
	}
	m.ensureReplicas(n)
	bounds := shardBounds(batch, n)
	out := make([][]Candidate, batch)
	// Inference shards are embarrassingly parallel: forward passes only read
	// the shared weights, and each worker writes a disjoint slice of out.
	tensor.RunTasks(n, func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		copy(out[lo:hi], m.worker(w).predictShard(sliceSeqs(seqs, lo, hi), degree, true))
	})
	return out
}

// predictShard runs inference for one shard of a batch; inline runs the
// LSTM chains one after the other (see hidden).
func (m *Model) predictShard(seqs []batchToken, degree int, inline bool) [][]Candidate {
	sp := m.tk.Begin("predict_shard")
	defer sp.End()
	tp := m.tape
	tp.Reset()
	tp.NoGrad = true
	ph, oh := m.hidden(tp, seqs, false, inline)
	pageLogits := m.pageHead.Forward(tp, ph)
	offLogits := m.offHead.Forward(tp, oh)
	batch := pageLogits.Val.Rows
	out := make([][]Candidate, batch)
	for b := 0; b < batch; b++ {
		m.pageScored = topKInto(m.pageScored[:0], pageLogits.Val.Row(b), degree)
		m.offScored = topKInto(m.offScored[:0], offLogits.Val.Row(b), degree)
		pages, offs := m.pageScored, m.offScored
		cands := make([]Candidate, 0, len(pages)*len(offs))
		for _, p := range pages {
			for _, o := range offs {
				cands = append(cands, Candidate{
					PageTok: p.idx,
					OffTok:  o.idx,
					Score:   p.prob * o.prob,
				})
			}
		}
		sortCandidates(cands)
		if len(cands) > degree {
			cands = cands[:degree]
		}
		out[b] = cands
	}
	return out
}

type scored struct {
	idx  int
	prob float64
}

// topKInto returns the k highest-logit entries with sigmoid probabilities,
// appending into dst (pass dst[:0] to reuse its backing array).
func topKInto(dst []scored, logits []float32, k int) []scored {
	if k > len(logits) {
		k = len(logits)
	}
	best := dst
	for i, v := range logits {
		p := float64(v) // rank by logit; convert to prob lazily below
		if len(best) < k {
			best = append(best, scored{i, p})
			if len(best) == k {
				sortScored(best)
			}
			continue
		}
		if p > best[k-1].prob {
			best[k-1] = scored{i, p}
			sortScored(best)
		}
	}
	if len(best) < k {
		sortScored(best)
	}
	for i := range best {
		best[i].prob = sigmoid64(best[i].prob)
	}
	return best
}

func sortScored(s []scored) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].prob > s[j-1].prob; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortCandidates(c []Candidate) {
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j].Score > c[j-1].Score; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// sigmoid64 turns a kept logit into a candidate's score. It is built on
// tensor.Exp64 rather than math.Exp, whose amd64 result depends on the
// CPU's FMA support and GODEBUG, so the scores serving sends keep their
// bits on every host.
func sigmoid64(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + tensor.Exp64(-x))
	}
	e := tensor.Exp64(x)
	return e / (1 + e)
}
