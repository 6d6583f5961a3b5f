// Per-connection request handling. One goroutine per connection reads
// frames, advances sessions, and answers — inline for the fast tier, via
// the batchers for the model tier.
//
// Per-connection scratch (frame buffers, row snapshot, reply channel,
// history window, decided candidates) is allocated once at connection
// setup and reused for every request, so the steady-state fast path
// allocates nothing: the exact-latency window (session advance through
// candidates ready) runs without triggering the collector even at bench
// stream counts. Its two steps, distill.History.Advance and
// distill.Table.Decide, are //hot:path, and TestFastPathAllocFree in
// internal/distill holds Advance → Pairs → Decide to zero allocations.
package serve

import (
	"bufio"
	"math"
	"net"
	"time"

	"voyager/internal/distill"
	"voyager/internal/serve/quality"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
)

// connState is one handler's reusable scratch.
type connState struct {
	resp    Response
	out     []byte              // encoded response frame
	window  []distill.TokTriple // model-tier window snapshot
	pairs   []distill.TokPair   // fast-tier history window
	cands   []distill.Candidate // fast-tier decisions
	lineBuf []uint64            // predicted lines handed to the quality scorer
	pend    pending             // reused: the handler blocks on reply before the next request
	reply   chan []voyager.Candidate

	streamID uint64 // cached session lookup
	sess     *session

	rpcTk   *tracing.Track // lazily created on the first traced request
	rpcInit bool
}

// handleConn serves one connection until EOF, a protocol error, or Close.
func (s *Server) handleConn(c net.Conn, id uint64) {
	defer s.handlers.Done()
	defer s.untrackConn(id)
	defer func() { _ = c.Close() }()

	br := bufio.NewReaderSize(c, 4096)
	bw := bufio.NewWriterSize(c, 4096)
	tk := s.obs.connTrack(id)
	cs := &connState{
		out:    make([]byte, 0, 4+respHeaderLen+16*candLen),
		window: make([]distill.TokTriple, s.seqLen),
		pairs:  make([]distill.TokPair, s.histLen),
		cands:  make([]distill.Candidate, 0, s.degree),
		reply:  make(chan []voyager.Candidate, 1),
	}
	if s.cfg.Quality != nil {
		cs.lineBuf = make([]uint64, 0, s.degree)
	}
	var in []byte
	for {
		payload, err := ReadFrame(br, in)
		if err != nil {
			return // EOF, read deadline from Close, or oversized frame
		}
		in = payload
		req, err := DecodeRequest(payload)
		if err != nil {
			// Malformed frame: tell this client and drop this connection;
			// the daemon and every other stream keep serving.
			s.obs.errors.Inc()
			cs.resp = Response{Status: StatusError, Err: err.Error()}
			_ = WriteFrame(bw, EncodeResponse(cs.out[:0], &cs.resp))
			return
		}
		switch req.Op {
		case OpPing:
			cs.resp = Response{Status: StatusOK}
		case OpClose:
			s.sessions.remove(req.Stream)
			if cs.streamID == req.Stream {
				cs.sess = nil
			}
			cs.resp = Response{Status: StatusOK}
		case OpPredict:
			if s.closing.Load() {
				s.obs.errors.Inc()
				cs.resp = Response{Status: StatusError, Err: "serve: shutting down"}
				_ = WriteFrame(bw, EncodeResponse(cs.out[:0], &cs.resp))
				return
			}
			sp := tk.Begin("request")
			if req.HasCtx {
				if !cs.rpcInit {
					cs.rpcTk = s.obs.rpcTrack(id)
					cs.rpcInit = true
				}
				cs.rpcTk.AsyncInstant("srv_recv", req.SpanID)
			}
			s.predict(cs, req)
			if req.HasCtx {
				cs.rpcTk.AsyncInstant("srv_reply", req.SpanID)
			}
			sp.End()
		}
		if err := WriteFrame(bw, EncodeResponse(cs.out[:0], &cs.resp)); err != nil {
			return
		}
	}
}

// predict answers one OpPredict into cs.resp.
func (s *Server) predict(cs *connState, req Request) {
	s.obs.requests.Inc()
	st := cs.sess
	if st == nil || cs.streamID != req.Stream || st.gone.Load() {
		st = s.sessions.get(req.Stream)
		cs.sess, cs.streamID = st, req.Stream
	}
	if req.Flags&FlagFast != 0 && s.cfg.Table != nil {
		s.predictFast(cs, st, req)
		return
	}
	s.predictModel(cs, st, req)
}

// predictModel snapshots the stream's token window, queues it for the
// batcher, and decodes the model's candidates against the trigger line.
func (s *Server) predictModel(cs *connState, st *session, req Request) {
	t0 := time.Now()
	st.mu.Lock()
	_, line := st.history.Advance(req.PC, req.Addr)
	st.history.Triples(cs.window)
	st.mu.Unlock()
	st.lastUsed.Store(t0.UnixNano())

	cs.pend = pending{row: cs.window, line: line, enq: t0, reply: cs.reply,
		traced: req.HasCtx, spanID: req.SpanID}
	s.queue <- &cs.pend
	cands := <-cs.reply

	cs.resp.Status = StatusOK
	cs.resp.Tier = TierModel
	cs.resp.Err = ""
	cs.resp.Cands = cs.resp.Cands[:0]
	for _, c := range cands {
		addr := uint64(0)
		if ln, ok := s.voc.Decode(line, c.PageTok, c.OffTok); ok {
			addr = ln << trace.LineBits
		}
		cs.resp.Cands = append(cs.resp.Cands, Candidate{
			PageTok:   int32(c.PageTok),
			OffTok:    int32(c.OffTok),
			ScoreBits: math.Float64bits(c.Score),
			Addr:      addr,
		})
	}
	lat := time.Since(t0)
	s.obs.modelReqs.Inc()
	s.obs.reqSec.Observe(lat.Seconds())
	s.cfg.ModelLatency.record(lat.Nanoseconds())

	if s.cfg.Quality != nil {
		st.qs.Score(line, cs.predictedLines(cs.resp.Cands), quality.TierModel)
	}
}

// predictFast answers inline from the distilled table: the session's
// history window goes to Table.Decide, the same decision the distilled
// replayer makes. The candidate records carry the decoded address (the
// fast tier's contract) plus the slot's token ids; ScoreBits is 0 — the
// table stores f16 probabilities, not model scores.
func (s *Server) predictFast(cs *connState, st *session, req Request) {
	t0 := time.Now()
	st.mu.Lock()
	pcTok, line := st.history.Advance(req.PC, req.Addr)
	st.history.Pairs(cs.pairs)
	st.mu.Unlock()

	var tier distill.Tier
	cs.cands, tier = s.cfg.Table.Decide(s.voc, pcTok, cs.pairs, line, s.degree, cs.cands[:0])
	cs.resp.Status = StatusOK
	cs.resp.Tier = TierFast
	cs.resp.Err = ""
	out := cs.resp.Cands[:0]
	for _, c := range cs.cands {
		out = append(out, Candidate{PageTok: c.PageTok, OffTok: c.OffTok, Addr: c.Addr})
	}
	cs.resp.Cands = out
	lat := time.Since(t0)

	st.lastUsed.Store(t0.UnixNano())
	s.obs.fastReqs.Inc()
	s.obs.tierCounts[tier].Inc()
	s.obs.fastSec.Observe(lat.Seconds())
	s.cfg.FastLatency.record(lat.Nanoseconds())

	// Quality work runs strictly after the latency record above: scoring
	// and the shadow-sample decision are off the measured fast path, and
	// the shadow model pass itself happens on a batcher goroutine.
	if s.cfg.Quality != nil {
		st.qs.Score(line, cs.predictedLines(out), quality.TierFast)
		if s.cfg.Quality.ShadowTick() {
			var fastTop uint64
			if len(out) > 0 {
				fastTop = out[0].Addr
			}
			s.enqueueShadow(st, fastTop)
		}
	}
}

// predictedLines converts a response's candidates into the cache lines the
// quality scorer matches against, reusing connection scratch. Candidates
// whose tokens did not decode (Addr 0) are unscoreable and are skipped —
// the scorer never sees them, so they don't dilute conservation.
func (cs *connState) predictedLines(cands []Candidate) []uint64 {
	lines := cs.lineBuf[:0]
	for _, c := range cands {
		if c.Addr != 0 {
			lines = append(lines, c.Addr>>trace.LineBits)
		}
	}
	cs.lineBuf = lines
	return lines
}

// enqueueShadow posts a model-tier shadow job for a just-answered fast-tier
// request. The job snapshots the session window *after* the request's
// advance — the same context predictModel would have used — into a fresh
// buffer (the job outlives this handler's scratch). The enqueue never
// blocks: a full admission queue drops the sample and counts the drop,
// because shadow work must never stall a handler.
func (s *Server) enqueueShadow(st *session, fastTop uint64) {
	p := &pending{row: make([]distill.TokTriple, s.seqLen), enq: time.Now(),
		shadow: true, fastTop: fastTop}
	st.mu.Lock()
	st.history.Triples(p.row)
	p.line = st.history.Line()
	st.mu.Unlock()
	select {
	case s.queue <- p:
	default:
		s.cfg.Quality.RecordShadowDropped()
	}
}
