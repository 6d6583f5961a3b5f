package serve

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStartStopNoGoroutineLeak starts and fully shuts down the daemon 100
// times — each cycle serving real requests over loopback with the eviction
// janitor running — and requires the goroutine count to return to baseline.
// This is the teeth behind the shutdown protocol: Close must join the accept
// loop, every connection handler, each of the four batchers, and the
// janitor, every time.
func TestStartStopNoGoroutineLeak(t *testing.T) {
	fixture(t)
	setProcs(t, 4)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for cycle := 0; cycle < 100; cycle++ {
		s, err := New(Config{
			Model:       fx.p.Model,
			Table:       fx.tab,
			MaxBatch:    8,
			IdleTimeout: 10 * time.Millisecond, // janitor ticks during the cycle
		})
		if err != nil {
			t.Fatalf("cycle %d: New: %v", cycle, err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatalf("cycle %d: Start: %v", cycle, err)
		}
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("cycle %d: Dial: %v", cycle, err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("cycle %d: Ping: %v", cycle, err)
		}
		a := fx.tr.Accesses[cycle%len(fx.tr.Accesses)]
		if _, err := cl.Predict(uint64(cycle), a.PC, a.Addr, true); err != nil {
			t.Fatalf("cycle %d: fast Predict: %v", cycle, err)
		}
		// Every 10th cycle also exercise the batchers (model inference is the
		// slow path; 10 full batches keep the test under a second).
		if cycle%10 == 0 {
			if _, err := cl.Predict(uint64(cycle), a.PC, a.Addr, false); err != nil {
				t.Fatalf("cycle %d: model Predict: %v", cycle, err)
			}
		}
		_ = cl.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", cycle, err)
		}
	}

	// The runtime parks finished goroutines asynchronously; give it a
	// bounded settle window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	var sb strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&sb, 1)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, n, sb.String())
}

// TestConcurrentStreamsUnderContention is the -race workhorse: many client
// goroutines hammer one server across both tiers while sessions are being
// closed and evicted underneath them. Responses are not compared here (the
// differential tests own correctness); this test exists so the race
// detector sees every cross-goroutine edge — session table, ring snapshots,
// admission queue, latency recorders, conn tracking — under real traffic.
func TestConcurrentStreamsUnderContention(t *testing.T) {
	fixture(t)
	rec := NewLatencyRecorder(1 << 12)
	s := startServer(t, Config{
		Model:        fx.p.Model,
		Table:        fx.tab,
		MaxBatch:     8,
		IdleTimeout:  5 * time.Millisecond, // evict aggressively mid-traffic
		FastLatency:  rec,
		ModelLatency: NewLatencyRecorder(1 << 12),
	})
	const (
		workers = 8
		reqs    = 150
	)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = cl.Close() }()
			for j := 0; j < reqs; j++ {
				a := fx.tr.Accesses[(w*31+j)%len(fx.tr.Accesses)]
				fast := (w+j)%3 != 0 // mix tiers ~2:1 fast:model
				if _, err := cl.Predict(uint64(w%5), a.PC, a.Addr, fast); err != nil {
					errCh <- err
					return
				}
				if j%50 == 49 {
					if err := cl.CloseStream(uint64(w % 5)); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rec.Count() == 0 {
		t.Fatal("fast-tier latency recorder saw no samples")
	}
}

// TestCloseIsIdempotentAndUnblocksIdleConns: a connection parked in a read
// must not stall Close, and double Close is a no-op.
func TestCloseIsIdempotentAndUnblocksIdleConns(t *testing.T) {
	fixture(t)
	s, err := New(Config{Model: fx.p.Model})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	// cl now idles with its handler parked in ReadFrame.
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close stalled on an idle connection")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_ = cl.Close()
}
