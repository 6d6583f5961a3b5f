// Package voyager implements the paper's hierarchical neural prefetcher:
// PC/page/offset embeddings, a page-aware offset embedding built from
// dot-product attention over a mixture of offset experts (§4.2), a delta
// vocabulary for compulsory misses (§4.3), multi-label training over five
// localization schemes (§4.4), and the online epoch-based train/predict
// protocol of §5.1.
package voyager

import (
	"fmt"

	"voyager/internal/label"
	"voyager/internal/metrics"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
)

// PCFeature selects how program counters enter the model (Figure 12's
// feature study).
type PCFeature int

const (
	// PCHistory embeds the PC of every access in the input sequence (the
	// paper's default).
	PCHistory PCFeature = iota
	// PCNone removes PCs from the features entirely (the paper finds
	// control flow is not a useful *feature*, only a useful *label*).
	PCNone
)

// Config holds every hyperparameter. Table 1 values come from
// PaperConfig; experiments use ScaledConfig (same architecture, smaller
// dimensions — pure-Go fp32 training is orders slower than the paper's
// TPU/GPU TensorFlow setup; see EXPERIMENTS.md).
type Config struct {
	Seed int64

	// Architecture (Table 1).
	SeqLen      int // history length
	PCEmbed     int // embedding size for PC
	PageEmbed   int // embedding size for page
	Experts     int // # experts; offset embedding size = Experts × PageEmbed
	Hidden      int // LSTM units (per LSTM; 1 layer each)
	DropoutKeep float32
	AttnScale   float32 // the scaling factor f in Eq. 9

	// Optimization (Table 1).
	LearningRate float32
	DecayRatio   float32 // learning rate divided by this each epoch
	BatchSize    int

	// Online protocol (§5.1): train on epoch i, predict epoch i+1.
	// EpochAccesses is the epoch length in trace accesses (the paper uses
	// 50M instructions; our traces are access-granular).
	EpochAccesses int
	// PassesPerEpoch replays each training epoch this many times. The
	// paper's 50M-instruction epochs give tens of thousands of optimizer
	// steps per epoch; our scaled traces are thousands of accesses, so
	// replaying the (still strictly past) epoch restores a comparable
	// optimization budget. 0 means 1.
	PassesPerEpoch int

	// Vocabulary (§4.3).
	UseDeltas   bool // include delta tokens (false = "Voyager w/o delta")
	MinAddrFreq int  // addresses seen fewer times are delta-encoded
	MaxDeltas   int  // page-delta token budget

	// Labeling (§4.4). Schemes lists the localization schemes whose labels
	// train the model; the default is all five (multi-label). Single-
	// scheme configs reproduce Figure 12/15 ablations.
	Schemes []label.Scheme

	// Features (Figure 12).
	PCUse PCFeature

	// NegSamples enables sampled-loss training for the page head: each
	// batch trains on its positive pages plus this many random negative
	// pages instead of the full vocabulary. 0 trains on the full
	// vocabulary. Inference always uses the full head.
	NegSamples int

	// PageAwareOffsets enables the paper's central mechanism: the
	// attention-based page-aware offset embedding (§4.2). Disabling it
	// reverts to a page-agnostic shared offset embedding (the naive
	// decomposition), which suffers the offset-aliasing problem the paper
	// describes. Default true; the ablation exists to demonstrate the
	// aliasing failure mode.
	PageAwareOffsets bool

	// HeadSkip feeds the trigger access's embeddings directly into the
	// prediction heads alongside the LSTM states. The paper's full-size
	// model (256-unit LSTMs, tens of millions of training samples) routes
	// all memorization through the recurrent state; at our scaled sizes
	// that path converges too slowly, so the skip connection restores a
	// fast learned-successor-table path. PaperConfig disables it.
	HeadSkip bool

	// Degree is the number of (page, offset) candidates prefetched per
	// trigger (§5.2 "Higher Degree Prefetching").
	Degree int

	// UnfusedLSTM routes both LSTMs through the node-per-op Step formulation
	// instead of the fused tensor.LSTMCell kernel. The two paths are
	// bit-identical; this is a test/debug hook for the differential suite,
	// not a tuning knob.
	UnfusedLSTM bool

	// Metrics is the optional observability registry. nil (the default)
	// disables instrumentation entirely. Enabling it never changes training:
	// instruments only observe values the run computes anyway — counters,
	// timings and post-reduce gradient reads — so runs are bit-identical
	// either way (pinned by the golden differential tests). Excluded from
	// JSON so run manifests embedding a Config stay plain data.
	Metrics *metrics.Registry `json:"-"`

	// Trace is the optional execution-span tracer. nil (the default)
	// disables span recording; like Metrics, enabling it never changes
	// training — spans only bracket work the run performs anyway, and the
	// trace differential test pins bit-identity against a traceless run.
	// Excluded from JSON like Metrics.
	Trace *tracing.Tracer `json:"-"`

	// Provenance is the optional prefetch-decision log: when set, every
	// prediction predictRange emits is stamped with a Decision (trigger
	// PC, predicted tokens/line, which labeling schemes named that line,
	// confidence rank) for downstream outcome attribution. Purely
	// observational like Metrics and Trace.
	Provenance *tracing.DecisionLog `json:"-"`

	// Workers is the data-parallel width of TrainBatch/PredictBatch: each
	// minibatch is cut into Workers contiguous shards that run forward and
	// backward concurrently, each on its own gradient buffer and RNG stream
	// (worker 0 continues the model's Seed stream; worker k>0 draws from
	// Seed+k). Gradients are reduced into the shared parameters in fixed
	// worker order, so training is reproducible at a given worker count,
	// and 0 or 1 keeps the serial path, which is bit-identical to the
	// pre-parallel implementation. WorkersAuto sizes to the machine.
	Workers int
}

// WorkersAuto as Config.Workers sizes the data-parallel width to the shared
// tensor worker pool (GOMAXPROCS).
const WorkersAuto = -1

// PaperConfig returns Table 1 exactly: sequence length 16, PC embedding 64,
// page embedding 256, offset embedding 25600 (100 experts), 1-layer
// 256-unit LSTMs, dropout keep 0.8, batch 256, Adam at 0.001 with decay
// ratio 2.
func PaperConfig() Config {
	return Config{
		Seed:             1,
		SeqLen:           16,
		PCEmbed:          64,
		PageEmbed:        256,
		Experts:          100,
		Hidden:           256,
		DropoutKeep:      0.8,
		AttnScale:        1,
		LearningRate:     0.001,
		DecayRatio:       2,
		BatchSize:        256,
		EpochAccesses:    50_000_000 / 5, // ≈50M instructions at ~5 inst/access
		UseDeltas:        true,
		MinAddrFreq:      2,
		MaxDeltas:        64,
		Schemes:          label.AllSchemes(),
		PCUse:            PCHistory,
		PageAwareOffsets: true,
		Degree:           1,
	}
}

// ScaledConfig preserves the paper's architectural ratios at CPU-friendly
// sizes: the offset embedding is still Experts × PageEmbed, the sequence
// is still 16 long, and all training hyperparameters match Table 1.
func ScaledConfig() Config {
	c := PaperConfig()
	c.SeqLen = 6
	c.PCEmbed = 8
	c.PageEmbed = 16
	c.Experts = 4
	c.Hidden = 32
	c.BatchSize = 128
	c.EpochAccesses = 8_000
	c.LearningRate = 0.01
	c.DecayRatio = 1.4
	c.PassesPerEpoch = 2
	c.NegSamples = 128
	c.HeadSkip = true
	return c
}

// FastConfig is a tiny configuration for unit tests.
func FastConfig() Config {
	c := ScaledConfig()
	c.SeqLen = 4
	c.PCEmbed = 8
	c.PageEmbed = 16
	c.Experts = 4
	c.Hidden = 24
	c.BatchSize = 32
	c.EpochAccesses = 2_000
	c.LearningRate = 0.01
	c.PassesPerEpoch = 6
	c.HeadSkip = true
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SeqLen < 1:
		return fmt.Errorf("voyager: SeqLen %d < 1", c.SeqLen)
	case c.PageEmbed < 1 || c.Experts < 1:
		return fmt.Errorf("voyager: PageEmbed %d / Experts %d invalid", c.PageEmbed, c.Experts)
	case c.Hidden < 1:
		return fmt.Errorf("voyager: Hidden %d < 1", c.Hidden)
	case c.BatchSize < 1:
		return fmt.Errorf("voyager: BatchSize %d < 1", c.BatchSize)
	case c.EpochAccesses < c.SeqLen+1:
		return fmt.Errorf("voyager: EpochAccesses %d too small for SeqLen %d", c.EpochAccesses, c.SeqLen)
	case len(c.Schemes) == 0:
		return fmt.Errorf("voyager: no labeling schemes")
	case c.DropoutKeep <= 0 || c.DropoutKeep > 1:
		return fmt.Errorf("voyager: DropoutKeep %v out of (0,1]", c.DropoutKeep)
	case c.Degree < 1:
		return fmt.Errorf("voyager: Degree %d < 1", c.Degree)
	case c.Workers < WorkersAuto:
		return fmt.Errorf("voyager: Workers %d invalid (use %d for auto)", c.Workers, WorkersAuto)
	}
	return nil
}

// OffsetEmbed returns the total offset embedding width (Experts × PageEmbed).
func (c Config) OffsetEmbed() int { return c.Experts * c.PageEmbed }

// vocabOptions translates the config into vocabulary options.
func (c Config) vocabOptions() vocab.Options {
	o := vocab.Options{MinAddrFreq: c.MinAddrFreq, MaxDeltas: c.MaxDeltas}
	if !c.UseDeltas {
		o.MaxDeltas = 0
	}
	return o
}

// InputDim returns the per-timestep feature width after embedding.
func (c Config) InputDim() int {
	d := 2 * c.PageEmbed // page embedding + page-aware offset embedding
	if c.PCUse == PCHistory {
		d += c.PCEmbed
	}
	return d
}
