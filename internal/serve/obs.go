// Serving observability: the SLO instruments on the /metrics registry, the
// request-lifecycle trace tracks, and the exact-nanosecond latency recorder
// the bench harness uses.
//
// The metrics histograms are the production SLO surface (queue wait, batch
// fill, per-request seconds at p50/p99 via Snapshot quantiles). They are
// log2-bucketed, which is deliberate (exact deterministic merges) but too
// coarse to resolve a sub-microsecond p99 bound — a 500ns value lands in a
// bucket whose representative is ~674ns. The acceptance gate "fast-tier p99
// under 10x the distilled per-prediction cost" therefore reads the exact
// LatencyRecorder samples instead.
package serve

import (
	"math"
	"sort"
	"sync/atomic"

	"voyager/internal/metrics"
	"voyager/internal/tracing"
)

// serveObs bundles every instrument the server records into. All fields are
// nil-safe no-ops when metrics/tracing are disabled, per the repo-wide
// pattern: call sites never nil-check.
type serveObs struct {
	requests  *metrics.Counter // total predict requests
	modelReqs *metrics.Counter // answered by the model tier
	fastReqs  *metrics.Counter // answered by the fast tier
	errors    *metrics.Counter // protocol/shutdown errors sent to clients

	batches    *metrics.Counter // PredictBatch calls
	batchRows  *metrics.Counter // total rows across batches (exact fill = rows/batches)
	tierCounts [3]*metrics.Counter

	janitorPasses *metrics.Counter // idle-eviction sweeps completed

	conns        *metrics.Gauge
	traceDropped *metrics.Gauge // span-arena drops, mirrored from the tracer
	workers      *metrics.Gauge // running batchers, one per inference worker

	queueWait *metrics.Histogram // seconds from enqueue to batch start
	batchFill *metrics.Histogram // rows per PredictBatch call
	reqSec    *metrics.Histogram // model-tier request service seconds
	fastSec   *metrics.Histogram // fast-tier request service seconds

	tracer *tracing.Tracer
}

func newServeObs(reg *metrics.Registry, tr *tracing.Tracer) *serveObs {
	o := &serveObs{
		requests:      reg.Counter("serve_requests_total"),
		modelReqs:     reg.Counter("serve_requests_model_total"),
		fastReqs:      reg.Counter("serve_requests_fast_total"),
		errors:        reg.Counter("serve_errors_total"),
		batches:       reg.Counter("serve_batches_total"),
		batchRows:     reg.Counter("serve_batch_rows_total"),
		janitorPasses: reg.Counter("serve_janitor_passes_total"),
		conns:         reg.Gauge("serve_conns_active"),
		traceDropped:  reg.Gauge("tracing_dropped_events"),
		workers:       reg.Gauge("serve_inference_workers"),
		queueWait:     reg.Histogram("serve_queue_wait_seconds"),
		batchFill:     reg.Histogram("serve_batch_rows"),
		reqSec:        reg.Histogram("serve_request_seconds"),
		fastSec:       reg.Histogram("serve_fast_request_seconds"),
		tracer:        tr,
	}
	for i := range o.tierCounts {
		o.tierCounts[i] = reg.Counter("serve_fast_tier_" + tierName(i) + "_total")
	}
	return o
}

func tierName(i int) string {
	switch i {
	case 0:
		return "context"
	case 1:
		return "markov"
	default:
		return "miss"
	}
}

// connTrack returns the timeline row for one connection handler. Track
// creation is data-dependent here (connection arrival order), which is fine
// for a wall-clock server timeline — serving traces are diagnostic, not
// byte-compared.
// Tracks are single-writer, so each connection needs its own; beyond this
// many, later connections go untraced rather than sharing (and racing on) a
// row.
const maxConnTracks = 999

func (o *serveObs) connTrack(connID uint64) *tracing.Track {
	if o.tracer == nil || connID > maxConnTracks {
		return nil
	}
	return o.tracer.Track("prefetchd", connThreadName(connID))
}

// rpcTrack is the per-connection timeline for trace-context request marks,
// under the merge-unified "rpc" process name (see batcher.rpcTk). Created
// lazily on a connection's first traced request so untraced serving adds no
// tracks.
func (o *serveObs) rpcTrack(connID uint64) *tracing.Track {
	if o.tracer == nil || connID > maxConnTracks {
		return nil
	}
	return o.tracer.Track("rpc", connThreadName(connID))
}

func connThreadName(id uint64) string {
	const digits = "0123456789"
	var b [12]byte
	copy(b[:], "conn-")
	n := 5
	if id >= 100 {
		b[n] = digits[id/100%10]
		n++
	}
	if id >= 10 {
		b[n] = digits[id/10%10]
		n++
	}
	b[n] = digits[id%10]
	return string(b[:n+1])
}

// LatencyRecorder collects exact per-request latencies (nanoseconds) into a
// preallocated bounded buffer. Recording is lock-free: a slot index is
// claimed atomically and the slot written plainly, so concurrent handlers
// never contend beyond one atomic add. Samples past the capacity are
// counted but dropped. Read the samples only after the server has quiesced
// (Close returned); the happens-before edge is the handler WaitGroup join.
type LatencyRecorder struct {
	samples []int64
	n       atomic.Int64
}

// NewLatencyRecorder returns a recorder holding up to capacity samples.
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]int64, capacity)}
}

// record claims the next slot (nil-safe, allocation-free).
func (r *LatencyRecorder) record(ns int64) {
	if r == nil {
		return
	}
	i := r.n.Add(1) - 1
	if int(i) < len(r.samples) {
		r.samples[i] = ns
	}
}

// Count returns how many latencies were recorded (including dropped ones).
func (r *LatencyRecorder) Count() int64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Samples returns the retained samples (aliases internal storage; do not
// call while the server is still recording).
func (r *LatencyRecorder) Samples() []int64 {
	if r == nil {
		return nil
	}
	n := int(r.n.Load())
	if n > len(r.samples) {
		n = len(r.samples)
	}
	return r.samples[:n]
}

// Quantile returns the exact nearest-rank q-quantile of the retained
// samples — the ceil(q·n)-th smallest — or 0 when empty. Sorts a copy; call
// after the run.
func (r *LatencyRecorder) Quantile(q float64) int64 {
	s := r.Samples()
	if len(s) == 0 {
		return 0
	}
	cp := make([]int64, len(s))
	copy(cp, s)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	// The 1e-9 keeps a product that should be an integer, such as
	// 0.07·100 = 7.000000000000001, from taking the next rank.
	rank := int(math.Ceil(q*float64(len(cp))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(cp) {
		rank = len(cp) - 1
	}
	return cp[rank]
}
