// The admission queue and batcher: model-tier requests are posted to a
// buffered channel; one batcher goroutine coalesces them into PredictBatch
// calls.
//
// Batching policy: the batcher blocks for the first request, then fills the
// batch from the queue until it holds MaxBatch rows or its MaxWait timer
// fires (MaxWait 0 = greedy: take whatever is already buffered and run
// immediately). Under saturation the timer never fires — the queue refills
// faster than inference drains it and batches run full. Under light load a
// request can wait well past MaxWait: the batcher waits out the timer even
// when every connected client's request is already in the batch, and when
// every P is idle Go's netpoller rounds a sleep under 1 ms up to 1 ms
// (runtime/netpoll_epoll.go). With MaxWait at 200 µs and two closed-loop
// clients, batches hold 2 rows and the median queue wait is about 1.4 ms.
// Because inference is row-independent, the policy affects only latency,
// never results (the batching-invariance test drives the same streams
// through disparate MaxBatch/MaxWait settings and byte-compares).
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
	var timer *time.Timer
	for {
		p, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], p)
		if s.cfg.MaxWait > 0 {
			if timer == nil {
				timer = time.NewTimer(s.cfg.MaxWait)
			} else {
				timer.Reset(s.cfg.MaxWait)
			}
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case q, ok := <-s.queue:
					if !ok {
						break collect // drained; run what we have, exit next
					}
					batch = append(batch, q)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select { // drain a fired timer so Reset starts clean
				case <-timer.C:
				default:
				}
			}
		} else {
		greedy:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case q, ok := <-s.queue:
					if !ok {
						break greedy
					}
					batch = append(batch, q)
				default:
					break greedy
				}
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
