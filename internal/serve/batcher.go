// The admission queue and batcher: model-tier requests are posted to a
// buffered channel; one batcher goroutine coalesces them into PredictBatch
// calls.
//
// Batching policy (work-conserving): the batcher blocks for the first
// request, takes whatever else is already queued, up to MaxBatch rows, and
// runs the batch at once. Requests that arrive while a batch runs form the
// next one, so batches still grow with load: under saturation the queue
// refills faster than inference drains it and batches run full (about 28
// rows of 32 at 64 closed-loop connections).
//
// There is no fill timer. A closed-loop client whose request is already in
// the batch cannot send another, and the server cannot see a request still
// on the wire, so waiting for more rows mostly delays the rows it has; and
// when every P is idle Go's netpoller rounds a sleep under 1 ms up to 1 ms
// (runtime/netpoll_epoll.go). With a 200 µs timer and two closed-loop
// clients, batches held 2 rows and the median queue wait was about 1.4 ms.
// Without it they hold 1 row, the median queue wait is about 20 µs and a
// model-tier round trip takes about 0.2 ms instead of 1.4 ms. Pairing the
// rows would save little: at the serving shape a 2-row PredictTokenBatch
// call costs about 1.8x a 1-row call.
//
// Because inference is row-independent, the policy affects only latency,
// never results (the batching-invariance test drives the same streams
// through disparate MaxBatch settings and byte-compares).
package serve

import (
	"time"

	"voyager/internal/trace"
	"voyager/internal/voyager"
)

// pending is one queued model-tier request: a snapshot of the stream's
// token window plus the trigger line needed to decode candidates. The
// handler blocks on reply (buffered, capacity 1, so the batcher never
// blocks answering).
//
// A shadow pending is a fast-tier request re-run through the model for
// drift detection: it has no reply channel (nobody is waiting), carries the
// fast tier's top-1 address, and the batcher records agreement instead of
// answering. A traced pending carries the client's span id so the batcher
// can mark the batch on the request's cross-process timeline.
type pending struct {
	row   []tok3 // seqLen triples, oldest first
	line  uint64 // trigger cache line
	enq   time.Time
	reply chan []voyager.Candidate

	traced bool
	spanID uint64

	shadow  bool
	fastTop uint64 // fast tier's top-1 prefetch address (0 = none)
}

// batchLoop is the single goroutine that talks to the model. It exits when
// Close closes the queue, after answering everything still buffered.
func (s *Server) batchLoop() {
	defer s.loops.Done()
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	tb := voyager.NewTokenBatch(s.seqLen)
	pcs := make([]int32, s.seqLen)
	pages := make([]int32, s.seqLen)
	offs := make([]int32, s.seqLen)
	for {
		p, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], p)
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break drain // closed; run what we have, exit next
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		s.runBatch(batch, tb, pcs, pages, offs)
	}
}

// runBatch runs one coalesced PredictBatch call and answers each request.
func (s *Server) runBatch(batch []*pending, tb *voyager.TokenBatch, pcs, pages, offs []int32) {
	now := time.Now()
	for _, p := range batch {
		s.obs.queueWait.Observe(now.Sub(p.enq).Seconds())
	}
	s.obs.batches.Inc()
	s.obs.batchRows.Add(uint64(len(batch)))
	s.obs.batchFill.Observe(float64(len(batch)))

	sp := s.obs.batchTk.Begin("predict_batch")
	tb.Reset()
	for _, p := range batch {
		if p.traced {
			s.obs.rpcBatchTk.AsyncInstant("srv_batch", p.spanID)
		}
		for i, t := range p.row {
			pcs[i], pages[i], offs[i] = t.pc, t.page, t.off
		}
		tb.Add(pcs, pages, offs)
	}
	cands := s.cfg.Model.PredictTokenBatch(tb, s.degree)
	sp.End()

	for i, p := range batch {
		if p.shadow {
			// Drift check: does the model's top-1 agree with what the fast
			// tier already answered? No reply — nobody is waiting.
			var modelTop uint64
			if cs := cands[i]; len(cs) > 0 {
				if ln, ok := s.voc.Decode(p.line, cs[0].PageTok, cs[0].OffTok); ok {
					modelTop = ln << trace.LineBits
				}
			}
			s.cfg.Quality.RecordShadow(modelTop == p.fastTop)
			continue
		}
		p.reply <- cands[i] // buffered; never blocks
	}
}
