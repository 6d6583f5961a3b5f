// The admission queue and the batchers: model-tier requests are posted to a
// buffered channel, and one batcher goroutine per inference worker
// coalesces them into PredictTokenBatch calls.
//
// Workers. The server runs one batcher per CPU (runtime.GOMAXPROCS(0) when
// Serve is called). Each runs its batches on its own inference worker: the
// served model or one of its replicas, which share the weights but not the
// tape (voyager.Model.InferenceWorkers). Serve starts only batcher 0, on the
// model itself; its first batch builds the replicas and starts the other
// batchers, so a server that never runs the model (fast tier only, no
// shadow sampling) builds none. At GOMAXPROCS 1 there is one batcher.
//
// Batching policy (work-conserving). The batchers take turns forming a
// batch: a batcher takes the turn, blocks for the first request, takes
// whatever else is already queued, up to MaxBatch rows, and hands the turn
// back before it runs the batch. So only one batcher waits on the queue at
// a time, batches run side by side, and requests that arrive while batches
// run form the next one: batches still grow with load, and under
// saturation they run full. The turn is a throughput policy that no test
// pins (results do not depend on it): when every batcher received from the
// queue at once, the rows spread thin, and 64 closed-loop connections ran
// at 13.2–15.2k req/s, no faster than one batcher (12.5–16.6k), with a p99
// of 10–12 ms; with the turn they ran at 15.0–21.2k req/s (median 20.3k)
// with a p99 of 5–7.5 ms (2 vCPUs).
//
// Two closed-loop model-tier clients put one row in every batch. With one
// batcher, each client's row waited out the other's batch, about half of a
// round trip; two batchers run the two rows at once. On 2 vCPUs this cut
// perfbench's model-tier latency_p50_us from ~236–257 to ~136–150 µs and
// raised throughput from ~7.4–8.1k to ~11.6–12.8k req/s; traced, the
// median queue wait fell from 5–11 to 1.35 µs. The fast-tier handlers
// share the CPUs with the batches: under mixed load in a closed-loop
// probe the fast tier's p99 fell 2–5× and its p50 rose a few µs. With
// more batchers than CPUs (GOMAXPROCS above the CPUs the process gets)
// batches time-share the CPUs and most of the gain goes (DESIGN §5.9).
//
// There is no fill timer. A closed-loop client whose request is already in
// the batch cannot send another, and the server cannot see a request still
// on the wire, so waiting for more rows mostly delays the rows it has; and
// when every P is idle Go's netpoller rounds a sleep under 1 ms up to 1 ms
// (runtime/netpoll_epoll.go). With a 200 µs timer and two closed-loop
// clients, batches held 2 rows and the median queue wait was about 1.4 ms.
//
// Because inference is row-independent, the policy affects only latency,
// never results (the batching-invariance test drives the same streams
// through disparate MaxBatch settings and worker counts and byte-compares).
package serve

import (
	"strconv"
	"time"

	"voyager/internal/distill"
	"voyager/internal/trace"
	"voyager/internal/tracing"
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
	row   []distill.TokTriple // seqLen triples, oldest first
	line  uint64              // trigger cache line
	enq   time.Time
	reply chan []voyager.Candidate

	traced bool
	spanID uint64

	shadow  bool
	fastTop uint64 // fast tier's top-1 prefetch address (0 = none)
}

// batcher is one inference worker's loop state: the model it runs its
// batches on, its own trace tracks (tracks are single-writer), and batch
// scratch reused from batch to batch.
type batcher struct {
	model *voyager.Model
	tk    *tracing.Track // predict_batch spans, under "prefetchd"
	// rpcTk carries the srv_batch marks of traced requests. It lives under
	// the shared "rpc" process name: tracing.Merge unifies processes by
	// name, so these marks land in the client's async spans.
	rpcTk *tracing.Track

	batch            []*pending
	tb               *voyager.TokenBatch
	pcs, pages, offs []int32

	// spawn is, on batcher 0 until its first batch, the number of
	// inference workers to run (GOMAXPROCS when Serve ran); zero after
	// that batch and on every other batcher.
	spawn int
}

// newBatcher builds batcher i around inference worker m. Batchers are built
// in worker order (Serve builds batcher 0, startWorkers the rest), so the
// batcher-<i> tracks are created in that order too.
func (s *Server) newBatcher(i int, m *voyager.Model) *batcher {
	name := "batcher-" + strconv.Itoa(i)
	return &batcher{
		model: m,
		tk:    s.cfg.Tracer.Track("prefetchd", name),
		rpcTk: s.cfg.Tracer.Track("rpc", name),
		batch: make([]*pending, 0, s.cfg.MaxBatch),
		tb:    voyager.NewTokenBatch(s.seqLen),
		pcs:   make([]int32, s.seqLen),
		pages: make([]int32, s.seqLen),
		offs:  make([]int32, s.seqLen),
	}
}

// batchLoop forms and runs batches until Close closes the queue. A batcher
// exits when it receives from the closed queue, so only once every buffered
// request has been taken; Close waits for every batcher to exit.
func (s *Server) batchLoop(b *batcher) {
	defer s.loops.Done()
	for {
		// The turn is held across the queue receive on purpose, against the
		// usual rule for locks: a batch forms only from requests no other
		// batcher can take. It cannot deadlock, because senders never take
		// the turn and Close only closes the queue, which ends the receive.
		<-s.turn
		p, ok := <-s.queue
		if !ok {
			s.turn <- struct{}{} // the next batcher sees the close too
			return
		}
		b.batch = append(b.batch[:0], p)
	drain:
		for len(b.batch) < s.cfg.MaxBatch {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break drain // closed; run what we have, exit next
				}
				b.batch = append(b.batch, q)
			default:
				break drain
			}
		}
		if b.spawn > 0 {
			s.startWorkers(b.spawn)
			b.spawn = 0
		}
		s.turn <- struct{}{} // the turn has one token, so this never blocks
		s.runBatch(b)
	}
}

// startWorkers builds inference workers 1..n-1 and starts their batchers in
// worker order. Batcher 0 calls it on its first batch, before it runs that
// batch, so no other goroutine uses the model while InferenceWorkers builds
// the replicas. Close may already be waiting on loops; batcher 0 has not
// called Done, so the count is above zero and the Adds are legal, and the
// new batchers exit on the closed queue.
func (s *Server) startWorkers(n int) {
	workers := s.cfg.Model.InferenceWorkers(n)
	for i := 1; i < len(workers); i++ {
		s.loops.Add(1)
		go s.batchLoop(s.newBatcher(i, workers[i]))
	}
	s.obs.workers.Set(float64(len(workers)))
}

// runBatch runs one coalesced PredictTokenBatch call on the batcher's
// worker and answers each request.
func (s *Server) runBatch(b *batcher) {
	batch := b.batch
	now := time.Now()
	for _, p := range batch {
		s.obs.queueWait.Observe(now.Sub(p.enq).Seconds())
	}
	s.obs.batches.Inc()
	s.obs.batchRows.Add(uint64(len(batch)))
	s.obs.batchFill.Observe(float64(len(batch)))

	sp := b.tk.Begin("predict_batch")
	b.tb.Reset()
	for _, p := range batch {
		if p.traced {
			b.rpcTk.AsyncInstant("srv_batch", p.spanID)
		}
		for i, t := range p.row {
			b.pcs[i], b.pages[i], b.offs[i] = t.PC, t.Page, t.Off
		}
		b.tb.Add(b.pcs, b.pages, b.offs)
	}
	cands := b.model.PredictTokenBatch(b.tb, s.degree)
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
