// Package serve is the prefetch-as-a-service daemon core: a TCP server that
// answers prediction requests from many concurrent trace streams against a
// trained Voyager model, with an optional distilled table as the low-latency
// fast tier.
//
// Architecture. Each connection gets a handler goroutine that decodes
// length-prefixed request frames (proto.go) and advances the stream's
// session (session.go). Fast-tier requests are answered inline by
// distill.Table.Decide, the distilled replayer's own decision, with no
// queuing. Model-tier requests are posted to an admission queue, where one
// batcher goroutine per CPU, each with its own inference worker, takes
// turns coalescing them into PredictTokenBatch calls (batcher.go) of up to
// MaxBatch rows: each batch takes the requests already queued and runs at
// once, with no fill timer, side by side with the other batchers' batches.
// The model's forward pass is row-independent at inference, so neither
// coalescing nor the worker a batch runs on changes any stream's answers
// (the batching-invariance and golden-differential tests pin this).
//
// Shutdown protocol (the waitleak contract): Close stops the listener, sets
// an immediate read deadline on every open connection so idle handlers
// unblock without severing in-flight responses, waits for all handlers to
// exit, then closes the admission queue — the batchers answer everything
// still queued before exiting — and finally stops the eviction janitor and
// joins the batchers and the janitor. Every goroutine the server starts is
// joined by Close; the 100x start/stop leak test holds the daemon to that.
package serve

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve/quality"
	"voyager/internal/sortkeys"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

// Config configures a Server. Model is required; everything else has
// serviceable defaults.
type Config struct {
	// Model is the trained Voyager model (its vocabulary decides token
	// encoding). Serve runs batches on it and on its replicas, one
	// inference worker per batcher (voyager.Model.InferenceWorkers), so
	// nothing else may train it or run inference on it while the server
	// runs.
	Model *voyager.Model
	// Table is the optional distilled fast tier. Its vocabulary
	// fingerprint must match the model's vocabulary.
	Table *distill.Table

	// Degree is the number of prefetch candidates per request (default:
	// the model config's Degree).
	Degree int
	// MaxBatch bounds the rows coalesced into one PredictBatch call
	// (default 32).
	MaxBatch int
	// MaxWait was the batcher's timer for filling a batch.
	//
	// Deprecated: ignored. The batcher never waits for rows that are not
	// queued yet: it runs each batch with the requests already queued
	// (batcher.go).
	MaxWait time.Duration
	// QueueDepth is the admission-queue capacity (default 4x MaxBatch).
	QueueDepth int
	// IdleTimeout evicts sessions unused for this long (0 disables the
	// janitor; nothing is ever evicted).
	IdleTimeout time.Duration

	// Metrics is the registry for SLO instruments (nil disables them).
	Metrics *metrics.Registry
	// Tracer records per-request lifecycle spans (nil disables tracing).
	Tracer *tracing.Tracer
	// Quality, when set, scores every emitted prediction against the
	// stream's subsequent demand accesses and, when the tracker's
	// ShadowEvery is set, shadow-samples fast-tier requests through the
	// model tier. All quality work runs after each request's latency has
	// been recorded — it is strictly off the measured prediction path, and
	// it never changes a response byte (the golden differential runs with
	// it on and off). nil disables everything.
	Quality *quality.Tracker

	// FastLatency/ModelLatency, when set, record exact per-request
	// prediction-path nanoseconds (session advance through candidates
	// ready) for each tier — perfbench and the quality-overhead gate use
	// these because the log2 SLO histograms cannot resolve a
	// sub-microsecond p99.
	FastLatency  *LatencyRecorder
	ModelLatency *LatencyRecorder
}

// Server is one serving daemon instance. Create with New, start with Start
// or Serve, stop with Close.
type Server struct {
	cfg     Config
	voc     *vocab.Vocab
	seqLen  int
	degree  int
	histLen int // fast-tier history window (0 when no table)

	sessions *sessionTable
	queue    chan *pending
	obs      *serveObs

	// turn holds the one token the batchers pass around: a batcher holds
	// it while it forms a batch (batcher.go).
	turn chan struct{}

	lis     net.Listener
	closing atomic.Bool

	mu      sync.Mutex
	conns   map[uint64]net.Conn
	connSeq uint64
	started bool
	closed  bool

	handlers sync.WaitGroup // accept loop + connection handlers
	loops    sync.WaitGroup // batchers + janitor
	stop     chan struct{}  // closed by Close; stops the janitor
}

// New validates the configuration and builds a server (no goroutines start
// until Start/Serve).
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	mcfg := cfg.Model.Config()
	if cfg.Degree <= 0 {
		cfg.Degree = mcfg.Degree
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.MaxBatch
	}
	voc := cfg.Model.Vocab()
	histLen := 0
	if cfg.Table != nil {
		if got, want := voc.Fingerprint(), cfg.Table.VocabFP; got != want {
			return nil, fmt.Errorf(
				"serve: distilled table compiled against a different vocabulary (fingerprint %#x, model's %#x)",
				want, got)
		}
		histLen = cfg.Table.HistLen
	}
	s := &Server{
		cfg:      cfg,
		voc:      voc,
		seqLen:   mcfg.SeqLen,
		degree:   cfg.Degree,
		histLen:  histLen,
		sessions: newSessionTable(voc, max(mcfg.SeqLen, histLen), cfg.Metrics, cfg.Quality),
		queue:    make(chan *pending, cfg.QueueDepth),
		obs:      newServeObs(cfg.Metrics, cfg.Tracer),
		turn:     make(chan struct{}, 1),
		conns:    make(map[uint64]net.Conn),
		stop:     make(chan struct{}),
	}
	s.turn <- struct{}{}
	return s, nil
}

// Start listens on addr ("host:port"; port 0 picks a free one) and serves in
// the background until Close.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.Serve(lis)
	return nil
}

// Serve starts serving on an existing listener (owned by the server from
// here on) and returns immediately. The server runs one batcher per CPU,
// runtime.GOMAXPROCS(0) read here: Serve starts the first, on the model
// itself, and its first batch starts the others (batcher.go).
func (s *Server) Serve(lis net.Listener) {
	s.mu.Lock()
	s.lis = lis
	s.started = true
	s.mu.Unlock()
	b := s.newBatcher(0, s.cfg.Model)
	b.spawn = runtime.GOMAXPROCS(0)
	s.obs.workers.Set(1)
	s.loops.Add(1)
	go s.batchLoop(b)
	if s.cfg.IdleTimeout > 0 {
		s.loops.Add(1)
		go s.janitor()
	}
	s.handlers.Add(1)
	go s.acceptLoop(lis)
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Sessions returns the number of live stream sessions.
func (s *Server) Sessions() int { return s.sessions.len() }

// acceptLoop accepts connections until the listener is closed.
func (s *Server) acceptLoop(lis net.Listener) {
	defer s.handlers.Done()
	for {
		c, err := lis.Accept()
		if err != nil {
			return // Close closed the listener (or it genuinely failed)
		}
		id, ok := s.trackConn(c)
		if !ok {
			_ = c.Close() // lost the race with Close
			continue
		}
		s.handlers.Add(1)
		go s.handleConn(c, id)
	}
}

// trackConn registers a live connection; refuses when closing.
func (s *Server) trackConn(c net.Conn) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return 0, false
	}
	s.connSeq++
	id := s.connSeq
	s.conns[id] = c
	s.obs.conns.Set(float64(len(s.conns)))
	return id, true
}

// untrackConn removes a connection on handler exit.
func (s *Server) untrackConn(id uint64) {
	s.mu.Lock()
	delete(s.conns, id)
	s.obs.conns.Set(float64(len(s.conns)))
	s.mu.Unlock()
}

// janitor evicts idle sessions on a ticker until Close.
func (s *Server) janitor() {
	defer s.loops.Done()
	period := s.cfg.IdleTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.sessions.evictIdle(s.cfg.IdleTimeout)
			s.obs.janitorPasses.Inc()
			// Piggyback the tracing drop gauge on the janitor cadence so a
			// capped span arena shows up on /metrics while the daemon runs,
			// not just in the trace file's post-mortem otherData.
			s.obs.traceDropped.Set(float64(s.cfg.Tracer.DroppedEvents()))
		case <-s.stop:
			return
		}
	}
}

// Close shuts the server down gracefully: no new connections, in-flight
// requests answered, queue drained, every goroutine joined. Safe to call
// once per Serve; returns the listener close error, if any.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.closing.Store(true)
	lis := s.lis
	s.mu.Unlock()

	err := lis.Close() // unblocks Accept

	// Unblock handlers parked in a frame read. A past read deadline fails
	// the *read* immediately but leaves writes alone, so a handler that is
	// mid-request still sends its response before exiting its loop.
	s.mu.Lock()
	for _, id := range sortkeys.Sorted(s.conns) {
		_ = s.conns[id].SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	s.handlers.Wait()
	close(s.queue) // batchers drain buffered requests, then exit
	close(s.stop)  // janitor exits
	s.loops.Wait()
	// Final drop-gauge update now that every recording goroutine is joined.
	s.obs.traceDropped.Set(float64(s.cfg.Tracer.DroppedEvents()))
	return err
}
