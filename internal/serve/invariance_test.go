package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"voyager/internal/voyager"
)

// TestBatchingInvariance is the coalescing-independence property test:
// the same per-stream request sequences are driven through servers with
// wildly different batch caps (single-row batches up to 64 rows), one or
// four batchers (GOMAXPROCS 1 and 4 around Serve), and a Workers=1 and a
// Workers=4 model, under randomly jittered interleavings, and every
// stream's response sequence must be byte-identical across all of them.
// Inference is row-independent, so how requests happened to share a batch,
// or which inference worker ran it, must never leak into results.
func TestBatchingInvariance(t *testing.T) {
	fixture(t)
	procs0 := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs0) })
	type config struct {
		model    string
		procs    int
		maxBatch int
	}
	models := map[string]*voyager.Model{"Workers=1": fx.p.Model, "Workers=4": fx.m4}
	var configs []config
	for _, model := range []string{"Workers=1", "Workers=4"} {
		for _, procs := range []int{1, 4} {
			for _, maxBatch := range []int{1, 8, 64, 5} {
				configs = append(configs, config{model, procs, maxBatch})
			}
		}
	}
	const (
		streams = 4
		perStr  = 300
	)
	// Stream k replays a distinct slice of the trace so the per-stream
	// sequences differ (a shared sequence would mask cross-stream mixups).
	var baseline [][]byte
	for ci, c := range configs {
		runtime.GOMAXPROCS(c.procs)
		s := startServer(t, Config{
			Model:    models[c.model],
			MaxBatch: c.maxBatch,
		})
		got := make([][]byte, streams)
		errs := make([]error, streams)
		var wg sync.WaitGroup
		for k := 0; k < streams; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k], errs[k] = replayRecorded(s, uint64(k), k, perStr, int64(ci*100+k))
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("config %d %+v stream %d: %v", ci, c, k, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("config %d %+v: Close: %v", ci, c, err)
		}
		runtime.GOMAXPROCS(procs0)
		if ci == 0 {
			baseline = got
			continue
		}
		for k := range got {
			if string(got[k]) != string(baseline[k]) {
				t.Fatalf("config %d %+v: stream %d responses differ from config 0 %+v",
					ci, c, k, configs[0])
			}
		}
	}
}

// replayRecorded replays perStr accesses starting at offset as one stream,
// with seeded random yields to vary how requests land in batches, and
// returns the concatenated encoded responses.
func replayRecorded(s *Server, streamID uint64, offset, perStr int, seed int64) ([]byte, error) {
	cl, err := Dial(s.Addr().String())
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for j := 0; j < perStr; j++ {
		a := fx.tr.Accesses[(offset+j)%len(fx.tr.Accesses)]
		r, err := cl.Predict(streamID, a.PC, a.Addr, false)
		if err != nil {
			return nil, fmt.Errorf("req %d: %w", j, err)
		}
		out = EncodeResponse(out, r)
		if rng.Intn(4) == 0 {
			runtime.Gosched()
		}
		if rng.Intn(64) == 0 {
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}
	return out, nil
}
