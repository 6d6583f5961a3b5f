package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/serve"
	"voyager/internal/serve/quality"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

// The serving workloads: an in-process prefetchd on loopback with its
// default serving settings and its observability on (metrics registry and
// quality tracker; no shadow sampling, no server-side tracer), driven by a
// closed loop of serveConns connections, one goroutine each, each
// multiplexing streamsPerConn stream ids round-robin. Every request switches
// stream, so each one takes the session-table path. Each stream replays its
// trace from its own seeded offset and sends a fixed number of requests, so
// a run's responses and tier counts repeat exactly for a seed.
const (
	serveBench     = "search"
	serveTraceLen  = 24_000 // prefetchd's -n default
	serveTrainLen  = 6_000  // the model trains on this prefix
	serveConns     = 2      // the measuring host's nproc
	streamsPerConn = 32
	serveDegree    = 1
	serveMaxBatch  = 32
	serveMaxWait   = 200 * time.Microsecond
	serveIdleEvict = 2 * time.Minute
	serveSetups    = 2 // setup_s is the median of this many setups

	// Nominal request rates turn --seconds into each stream's fixed request
	// count: the run takes about --seconds at these rates.
	fastNominalRPS  = 60_000
	modelNominalRPS = 900

	// maxTraced caps the traced requests of a traced run (every k-th
	// request carries spans), which keeps the trace file to tens of MB.
	maxTraced = 20_000

	// oracleBatch is the inference batch width of the model-tier check.
	oracleBatch = 256
)

// servingSys is one set-up server with its inputs and client connections.
type servingSys struct {
	tr    *trace.Trace       // the whole generated trace
	p     *voyager.Predictor // the model, bound to the training prefix
	tab   *distill.Table
	srv   *serve.Server
	reg   *metrics.Registry
	qual  *quality.Tracker
	fast  *serve.LatencyRecorder
	model *serve.LatencyRecorder
	conns []*wire
}

// setupServing generates the trace, trains and distills the model, starts
// the server and opens the client connections, up to the first response.
// fastCap and modelCap size the server's exact latency recorders.
func setupServing(seed int64, fastCap, modelCap int) (*servingSys, time.Duration, error) {
	t0 := time.Now()
	tr, err := workloads.Generate(serveBench, workloads.Config{Seed: seed, Scale: 1, MaxAccesses: serveTraceLen})
	if err != nil {
		return nil, 0, err
	}
	cfg := voyager.ScaledConfig()
	cfg.Seed = seed
	cfg.Hidden = 64
	cfg.Degree = serveDegree
	cfg.DropoutKeep = 1
	cfg.Workers = 1
	p, err := voyager.Train(tr.Slice(0, min(serveTrainLen, tr.Len())), cfg)
	if err != nil {
		return nil, 0, err
	}
	s := &servingSys{
		tr:    tr,
		p:     p,
		tab:   distill.Compile(p, 0, p.NumAccesses(), distill.DefaultParams()),
		reg:   metrics.NewRegistry(),
		fast:  serve.NewLatencyRecorder(fastCap),
		model: serve.NewLatencyRecorder(modelCap),
	}
	s.qual = quality.New(quality.Config{Metrics: s.reg})
	s.srv, err = serve.New(serve.Config{
		Model:        p.Model,
		Table:        s.tab,
		Degree:       serveDegree,
		MaxBatch:     serveMaxBatch,
		MaxWait:      serveMaxWait,
		IdleTimeout:  serveIdleEvict,
		Metrics:      s.reg,
		Quality:      s.qual,
		FastLatency:  s.fast,
		ModelLatency: s.model,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return nil, 0, err
	}
	for i := 0; i < serveConns; i++ {
		w, err := dialWire(s.srv.Addr().String())
		if err != nil {
			_ = s.close()
			return nil, 0, err
		}
		s.conns = append(s.conns, w)
	}
	if err := s.conns[0].roundTrip(serve.Request{Op: serve.OpPing}); err != nil {
		_ = s.close()
		return nil, 0, fmt.Errorf("first response: %w", err)
	}
	return s, time.Since(t0), nil
}

// close drops the client connections and shuts the server down; every
// server goroutine has exited when it returns.
func (s *servingSys) close() error {
	for _, w := range s.conns {
		_ = w.c.Close() // the server sees EOF; nothing is left to flush
	}
	return s.srv.Close()
}

// wire is the benchmark's client: the exported wire codec over one
// connection, split so each phase of a round trip can be timed.
type wire struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	out  []byte
	in   []byte
	resp serve.Response
}

func dialWire(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &wire{c: c, br: bufio.NewReaderSize(c, 4096), bw: bufio.NewWriterSize(c, 4096)}, nil
}

// roundTrip sends req and decodes the reply into w.resp.
func (w *wire) roundTrip(req serve.Request) error {
	var ts [5]time.Time
	return w.timedRoundTrip(req, &ts, false)
}

// timedRoundTrip is roundTrip with, when clock is set, a clock read at
// each phase boundary: ts[0] start, ts[1] encoded, ts[2] written and
// flushed, ts[3] reply read, ts[4] decoded.
func (w *wire) timedRoundTrip(req serve.Request, ts *[5]time.Time, clock bool) error {
	stamp := func(i int) {
		if clock {
			ts[i] = time.Now()
		}
	}
	stamp(0)
	w.out = serve.EncodeRequest(w.out[:0], req)
	stamp(1)
	if err := serve.WriteFrame(w.bw, w.out); err != nil {
		return err
	}
	stamp(2)
	p, err := serve.ReadFrame(w.br, w.in)
	if err != nil {
		return err
	}
	w.in = p
	stamp(3)
	err = serve.DecodeResponse(p, &w.resp)
	stamp(4)
	if err != nil {
		return err
	}
	if w.resp.Status != serve.StatusOK {
		return fmt.Errorf("server error: %s", w.resp.Err)
	}
	return nil
}

// step is one planned request.
type step struct {
	stream  uint32
	pos     uint32 // trace position of the access
	restart bool   // the stream wrapped: close its session first
	// fresh: the stream's current session has seen every access of the
	// model's window from its own start (it began at position 0 or at least
	// SeqLen accesses ago), so the offline model answers the same question.
	fresh bool
}

// reply is what a request got back.
type reply struct {
	rtt  time.Duration
	end  time.Duration // completion, from the start of the measured phase
	tier byte
	n    int
	cand [serveDegree]serve.Candidate
}

// makePlans lays out each connection's request sequence: stream s starts at
// a seeded offset into the first replayLen accesses, wraps to 0 (closing
// its session) at replayLen, and sends perStream requests.
func makePlans(seed int64, replayLen, perStream, seqLen int) [][]step {
	rng := rand.New(rand.NewSource(seed))
	n := serveConns * streamsPerConn
	cursor := make([]int, n)
	start := make([]int, n)
	for s := range cursor {
		cursor[s] = rng.Intn(replayLen)
		start[s] = cursor[s]
	}
	plans := make([][]step, serveConns)
	for c := range plans {
		plan := make([]step, 0, perStream*streamsPerConn)
		for i := 0; i < perStream; i++ {
			for k := 0; k < streamsPerConn; k++ {
				s := c*streamsPerConn + k
				st := step{stream: uint32(s)}
				if cursor[s] == replayLen {
					cursor[s], start[s] = 0, 0
					st.restart = true
				}
				st.pos = uint32(cursor[s])
				st.fresh = start[s] == 0 || cursor[s]-start[s] >= seqLen
				cursor[s]++
				plan = append(plan, st)
			}
		}
		plans[c] = plan
	}
	return plans
}

// drive sends one connection's plan and records each reply. When rec is
// set, every every-th request carries spans. It returns how many requests
// completed.
func drive(w *wire, plan []step, out []reply, tr *trace.Trace, fast bool, rec *spanRec, conn, every int, start time.Time) (int, error) {
	var flags byte
	if fast {
		flags = serve.FlagFast
	}
	var ts [5]time.Time
	for i, st := range plan {
		if st.restart {
			if err := w.roundTrip(serve.Request{Op: serve.OpClose, Stream: uint64(st.stream)}); err != nil {
				return i, err
			}
		}
		a := tr.Accesses[st.pos]
		req := serve.Request{Op: serve.OpPredict, Flags: flags, Stream: uint64(st.stream), PC: a.PC, Addr: a.Addr}
		r := &out[i]
		if rec != nil && i%every == 0 {
			if err := w.timedRoundTrip(req, &ts, true); err != nil {
				return i, err
			}
			r.rtt, r.end = ts[4].Sub(ts[0]), ts[4].Sub(start)
			g := uint64(conn)<<40 | uint64(i)
			rec.begin("request", g, ts[0])
			for k, name := range [...]string{"encode", "write", "wait", "decode"} {
				rec.span(name, g, k+1, ts[k], ts[k+1])
			}
			rec.end("request", g, ts[4])
		} else {
			t0 := time.Now()
			if err := w.roundTrip(req); err != nil {
				return i, err
			}
			t1 := time.Now()
			r.rtt, r.end = t1.Sub(t0), t1.Sub(start)
		}
		r.tier = w.resp.Tier
		r.n = copy(r.cand[:], w.resp.Cands)
		if len(w.resp.Cands) > serveDegree {
			r.n = len(w.resp.Cands) // more than asked for: fails the check
		}
	}
	return len(plan), nil
}

// runServing runs the fast-tier (fast) or model-tier workload.
func runServing(o options, fast bool) (*result, error) {
	res := newResult()
	rps, replayLen := float64(fastNominalRPS), serveTraceLen
	if !fast {
		rps, replayLen = modelNominalRPS, serveTrainLen
	}
	nStreams := serveConns * streamsPerConn
	perStream := int(math.Ceil(float64(o.seconds) * rps / float64(nStreams)))
	total := perStream * nStreams

	setups := serveSetups
	if o.traced {
		setups = 1 // the traced run reports no setup time
	}
	fastCap, modelCap := total, 0
	if !fast {
		fastCap, modelCap = 0, total
	}
	var s *servingSys
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
			runtime.GC() // a discarded setup's heap must not inflate the next
		}
		var d time.Duration
		var err error
		if s, d, err = setupServing(o.seed, fastCap, modelCap); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer func() { _ = s.close() }()
	replayLen = min(replayLen, s.tr.Len())
	seqLen := s.p.Model.Config().SeqLen
	plans := makePlans(o.seed, replayLen, perStream, seqLen)

	// The model tier's offline answers, computed while the server is idle
	// (inference must never run concurrently with the batcher), in batches
	// small enough that the check does not set the peak resident set.
	var oracle [][]voyager.Candidate
	if !fast {
		positions := make([]int, 0, oracleBatch)
		for lo := 0; lo < replayLen; lo += oracleBatch {
			positions = positions[:0]
			for i := lo; i < min(lo+oracleBatch, replayLen); i++ {
				positions = append(positions, i)
			}
			oracle = append(oracle, s.p.PredictAt(positions, serveDegree)...)
		}
	}

	var tracer *tracing.Tracer
	recs := make([]*spanRec, serveConns)
	every := 1
	if o.traced {
		tracer = tracing.New(tracing.Options{Path: o.traceOut})
		for c := range recs {
			recs[c] = newSpanRec(tracer, "perfbench", fmt.Sprintf("conn-%d", c))
		}
		every = max(2, (total+maxTraced-1)/maxTraced)
	}

	replies := make([][]reply, serveConns)
	done := make([]int, serveConns)
	errs := make([]error, serveConns)
	for c := range replies {
		replies[c] = make([]reply, len(plans[c]))
	}
	runtime.GC()
	mem := startMem()
	steal := startSteal()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			done[c], errs[c] = drive(s.conns[c], plans[c], replies[c], s.tr, fast, recs[c], c, every, t0)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	res.steal = steal.stop()
	if err := readPeakRSS(res); err != nil {
		return nil, err
	}
	completed := 0
	for _, n := range done {
		completed += n
	}
	mem.stop(res, completed)
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := tracer.Close(); err != nil {
		return nil, err
	}

	res.attempted = total
	for c, err := range errs {
		if err != nil {
			res.failed += len(plans[c]) - done[c]
			res.failures = append(res.failures, fmt.Sprintf("connection %d: request %d: %v", c, done[c], err))
		}
	}
	voc := s.p.Model.Vocab()
	for c, plan := range plans {
		plan = plan[:done[c]]
		if fast {
			if err := checkFast(res, s.tab, voc, s.tr, plan, replies[c][:done[c]]); err != nil {
				return nil, err
			}
		} else {
			checkModel(res, s.p, voc, oracle, plan, replies[c][:done[c]])
		}
	}

	var rtt, rttTraced []int64
	for c := range replies {
		for i, r := range replies[c][:done[c]] {
			if o.traced && i%every == 0 {
				rttTraced = append(rttTraced, int64(r.rtt))
			} else {
				rtt = append(rtt, int64(r.rtt))
			}
		}
	}
	rttUS := nsToFloats(rtt, 1e3)
	tierRep := s.qual.Report().Model
	pathRec := s.model
	if fast {
		tierRep, pathRec = s.qual.Report().Fast, s.fast
	}
	if !o.traced {
		for c := range replies {
			replies[c] = replies[c][:done[c]]
		}
		rps, p50, windows := windowStats(replies, wall)
		res.values["setup_s"] = median(setupS)
		res.values["latency_p50_us"] = p50
		res.values["throughput_per_s"] = rps
		res.note("setup_s", median(setupS), "s", len(setupS))
		res.note("window medians", float64(windows), "count", windows)
		res.note("rtt_p50_us", quantile(rttUS, 0.5), "us", len(rttUS))
		if tailReportable(len(rttUS), 0.99) {
			res.note("rtt_p99_us", quantile(rttUS, 0.99), "us", len(rttUS))
		}
		res.note("throughput_rps", float64(completed)/wall.Seconds(), "req/s", completed)
		res.note("quality.accuracy", float64(tierRep.Accuracy), "ratio", int(tierRep.Useful+tierRep.Late+tierRep.Miss))
		return res, nil
	}

	// Per-layer figures from the traced run.
	v := res.values
	pathP50 := float64(pathRec.Quantile(0.5))
	v["serve.path_p50_ns"] = pathP50
	v["serve.path_p99_ns"] = float64(pathRec.Quantile(0.99))
	v["serve.outside_path_us"] = quantile(rttUS, 0.5) - pathP50/1e3
	if b := s.reg.Counter("serve_batches_total").Value(); b > 0 {
		v["serve.batch_fill"] = float64(s.reg.Counter("serve_batch_rows_total").Value()) / float64(b)
	}
	v["serve.queue_wait_p50_us"] = s.reg.Histogram("serve_queue_wait_seconds").Quantile(0.5) * 1e6
	if n := s.reg.Counter("serve_requests_fast_total").Value(); n > 0 {
		for _, t := range []string{"context", "markov", "miss"} {
			v["serve.tier_"+t+"_frac"] = float64(s.reg.Counter("serve_fast_tier_"+t+"_total").Value()) / float64(n)
		}
	}
	if acc := float64(tierRep.Accuracy); !math.IsNaN(acc) { // NaN: nothing settled yet
		v["quality.accuracy"] = acc
	}
	v["bench.trace_overhead"] = median(nsToFloats(rttTraced, 1)) / median(nsToFloats(rtt, 1))
	if err := clientLayers(res, o.traceOut, pathP50); err != nil {
		return nil, err
	}
	if fast {
		v["distill.keys"] = float64(s.tab.Stats().Keys)
		v["distill.table_bytes"] = float64(s.tab.Bytes())
		if err := fastLayers(res, s, plans, done); err != nil {
			return nil, err
		}
	} else {
		modelLayers(res, s.p, int(math.Round(v["serve.batch_fill"])))
	}
	return res, nil
}

// window is the target width of the measured phase's windows.
const window = time.Second

// windowStats cuts the measured phase into equal windows of about window
// each and returns the median over windows of the requests completed per
// second and of the round-trip median (µs). A stall that hits part of the
// phase then moves one window's figures, not the run's.
func windowStats(replies [][]reply, wall time.Duration) (rps, p50us float64, n int) {
	n = max(1, int(wall/window))
	width := wall / time.Duration(n)
	rtts := make([][]float64, n)
	for _, rs := range replies {
		for _, r := range rs {
			k := min(int(r.end/width), n-1)
			rtts[k] = append(rtts[k], float64(r.rtt)/1e3)
		}
	}
	rates := make([]float64, 0, n)
	p50s := make([]float64, 0, n)
	for _, w := range rtts {
		rates = append(rates, float64(len(w))/width.Seconds())
		if len(w) > 0 {
			p50s = append(p50s, median(w))
		}
	}
	return median(rates), median(p50s), n
}

// checkFast compares each fast-tier reply with an offline distilled
// prefetcher fed the same stream (reset where the stream's session was
// closed): the candidate addresses must be equal.
func checkFast(res *result, tab *distill.Table, voc *vocab.Vocab, tr *trace.Trace, plan []step, replies []reply) error {
	pfs := map[uint32]*distilled.Prefetcher{}
	for i, st := range plan {
		pf := pfs[st.stream]
		if pf == nil {
			var err error
			if pf, err = distilled.New(tab, voc, serveDegree); err != nil {
				return err
			}
			pfs[st.stream] = pf
		}
		if st.restart {
			pf.Reset()
		}
		want := pf.Access(int(st.pos), tr.Accesses[st.pos])
		r := replies[i]
		ok := r.tier == serve.TierFast && r.n == len(want)
		for j := 0; ok && j < r.n; j++ {
			ok = r.cand[j].Addr == want[j]
		}
		if !ok {
			res.fail("stream %d position %d: fast tier answered %v, offline replay %v", st.stream, st.pos, r.cand[:min(r.n, serveDegree)], want)
		}
	}
	return nil
}

// checkModel compares each model-tier reply whose window the offline model
// sees identically with PredictAt at the same position: token ids, score
// bits and decoded address must be equal.
func checkModel(res *result, p *voyager.Predictor, voc *vocab.Vocab, oracle [][]voyager.Candidate, plan []step, replies []reply) {
	for i, st := range plan {
		if !st.fresh {
			continue
		}
		want := oracle[st.pos]
		r := replies[i]
		ok := r.tier == serve.TierModel && r.n == len(want)
		for j := 0; ok && j < r.n; j++ {
			c := want[j]
			var addr uint64
			if ln, dec := voc.Decode(p.LineAt(int(st.pos)), c.PageTok, c.OffTok); dec {
				addr = ln << trace.LineBits
			}
			ok = r.cand[j] == serve.Candidate{PageTok: int32(c.PageTok), OffTok: int32(c.OffTok), ScoreBits: math.Float64bits(c.Score), Addr: addr}
		}
		if !ok {
			res.fail("stream %d position %d: model tier answered %v, PredictAt %v", st.stream, st.pos, r.cand[:min(r.n, serveDegree)], want)
		}
	}
}

// clientLayers reads the traced requests back from the trace file, checks
// that the client spans partition each request exactly and that the
// server's prediction path fits inside the client's wait, and reports the
// client's per-phase self times.
func clientLayers(res *result, path string, pathP50 float64) error {
	groups, err := traceSpans(path)
	if err != nil {
		return err
	}
	var codec []int64
	bad := 0
	for _, g := range groups {
		if g.parent.name != "request" {
			continue
		}
		if !g.partitions() || len(g.children) != 4 {
			bad++
			continue
		}
		codec = append(codec, g.children[0].dur()+g.children[3].dur())
	}
	if bad > 0 || len(codec) == 0 {
		return fmt.Errorf("reconciliation: %d of %d traced requests are not partitioned by their client spans", bad, bad+len(codec))
	}
	d := childDurations(groups, "request")
	for _, name := range []string{"encode", "write", "wait", "decode"} {
		res.values["client."+name+"_ns"] = medianNs(d[name])
	}
	res.values["serve.codec_ns"] = medianNs(codec)
	if wait := res.values["client.wait_ns"]; pathP50 > wait {
		return fmt.Errorf("reconciliation: server path p50 %.0f ns exceeds the client's median wait %.0f ns", pathP50, wait)
	}
	res.note("traced requests", float64(len(codec)), "count", len(codec))
	return nil
}

// fastLayers times the fast tier's building blocks by replaying the run's
// request stream offline through their exported functions: the context
// probe (ContextKey, PairKey, Lookup), the distilled prefetcher's Access,
// and the vocabulary codec (EncodeAccess, Decode).
func fastLayers(res *result, s *servingSys, plans [][]step, done []int) error {
	voc := s.p.Model.Vocab()
	h := s.tab.HistLen
	var reqs []step
	for c, plan := range plans {
		reqs = append(reqs, plan[:done[c]]...)
	}
	n := len(reqs)
	if n == 0 {
		return nil
	}
	// Each request's probe inputs, built by the same first-access backfill
	// the server's sessions apply.
	type hist struct {
		seen     bool
		prevLine uint64
		pairs    []distill.TokPair
	}
	streams := map[uint32]*hist{}
	pcTok := make([]int, n)
	pairs := make([]distill.TokPair, n*h)
	prev := make([]uint64, n)
	lines := make([]uint64, n)
	for i, st := range reqs {
		hs := streams[st.stream]
		if hs == nil {
			hs = &hist{pairs: make([]distill.TokPair, h)}
			streams[st.stream] = hs
		}
		if st.restart {
			hs.seen = false
		}
		a := s.tr.Accesses[st.pos]
		line := trace.Line(a.Addr)
		if !hs.seen {
			hs.prevLine = line
		}
		pg, off := voc.EncodeAccess(hs.prevLine, line)
		pair := distill.TokPair{Page: int32(pg), Off: int32(off)}
		if !hs.seen {
			for j := range hs.pairs {
				hs.pairs[j] = pair
			}
			hs.seen = true
		} else {
			copy(hs.pairs, hs.pairs[1:])
			hs.pairs[h-1] = pair
		}
		prev[i], lines[i] = hs.prevLine, line
		hs.prevLine = line
		pcTok[i] = voc.PCToken(a.PC)
		copy(pairs[i*h:], hs.pairs)
	}

	sink := 0
	probe := timeMedian(3, func() {
		for i := 0; i < n; i++ {
			trig := pairs[i*h+h-1]
			slots, tier := s.tab.Lookup(distill.ContextKey(pcTok[i], pairs[i*h:i*h+h]), distill.PairKey(int(trig.Page), int(trig.Off)))
			sink += len(slots) + int(tier)
		}
	})
	codec := timeMedian(3, func() {
		for i := 0; i < n; i++ {
			pg, off := voc.EncodeAccess(prev[i], lines[i])
			ln, _ := voc.Decode(prev[i], pg, off)
			sink += int(ln)
		}
	})
	var accessErr error
	access := timeMedian(3, func() {
		pfs := map[uint32]*distilled.Prefetcher{}
		for _, st := range reqs {
			pf := pfs[st.stream]
			if pf == nil {
				if pf, accessErr = distilled.New(s.tab, voc, serveDegree); accessErr != nil {
					return
				}
				pfs[st.stream] = pf
			}
			if st.restart {
				pf.Reset()
			}
			sink += len(pf.Access(int(st.pos), s.tr.Accesses[st.pos]))
		}
	})
	if accessErr != nil {
		return accessErr
	}
	res.values["distill.probe_ns"] = float64(probe) / float64(n)
	res.values["vocab.codec_ns"] = float64(codec) / float64(n)
	res.values["distilled.access_ns"] = float64(access) / float64(n)
	if sink == 0 {
		return fmt.Errorf("offline replay produced nothing")
	}
	return nil
}

// modelLayers times PredictTokenBatch directly at the batch fill the server
// saw, on windows taken from the training prefix.
func modelLayers(res *result, p *voyager.Predictor, fill int) {
	fill = max(fill, 1)
	cfg := p.Model.Config()
	b := voyager.NewTokenBatch(cfg.SeqLen)
	pc := make([]int32, cfg.SeqLen)
	pg := make([]int32, cfg.SeqLen)
	off := make([]int32, cfg.SeqLen)
	for r := 0; r < fill; r++ {
		end := cfg.SeqLen + r*97%(p.NumAccesses()-cfg.SeqLen)
		for j := 0; j < cfg.SeqLen; j++ {
			tPC, tPage, tOff := p.TokensAt(end - cfg.SeqLen + 1 + j)
			pc[j], pg[j], off[j] = int32(tPC), int32(tPage), int32(tOff)
		}
		b.Add(pc, pg, off)
	}
	d := timeMedian(200, func() { p.Model.PredictTokenBatch(b, serveDegree) })
	res.values["voyager.predict_row_us"] = d.Seconds() * 1e6 / float64(fill)
	res.values["tensor.predict_gflops"] = forwardFLOPs(cfg, p.Model.Vocab().PageTokens()) * float64(fill) / d.Seconds() / 1e9
}

// forwardFLOPs estimates one row's inference FLOPs from the layer shapes:
// per timestep the page-aware offset attention (Experts×PageEmbed dot
// products and as many weighted adds) and the two LSTM cells (4·Hidden
// gates over input plus hidden), then both heads over their full output
// widths. A multiply-add counts as two FLOPs; activations are left out.
func forwardFLOPs(cfg voyager.Config, pageTokens int) float64 {
	return float64(cfg.SeqLen)*stepFLOPs(cfg) + headFLOPs(cfg, pageTokens)
}

func stepFLOPs(cfg voyager.Config) float64 {
	in, h := cfg.InputDim(), cfg.Hidden
	return float64(4*cfg.Experts*cfg.PageEmbed + 2*2*4*h*(in+h))
}

func headFLOPs(cfg voyager.Config, pageCols int) float64 {
	in := cfg.Hidden
	if cfg.HeadSkip {
		in += cfg.InputDim()
	}
	return float64(2 * in * (pageCols + vocab.OffsetTokens))
}
