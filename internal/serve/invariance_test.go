package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBatchingInvariance is the coalescing-independence property test:
// the same per-stream request sequences are driven through servers with
// wildly different batch caps (single-row batches up to 64 rows) under
// randomly jittered interleavings, and every stream's response sequence
// must be byte-identical across all of them. Inference is row-independent,
// so how requests happened to share a PredictBatch must never leak into
// results.
func TestBatchingInvariance(t *testing.T) {
	fixture(t)
	maxBatches := []int{1, 8, 64, 5}
	const (
		streams = 4
		perStr  = 300
	)
	// Stream k replays a distinct slice of the trace so the per-stream
	// sequences differ (a shared sequence would mask cross-stream mixups).
	var baseline [][]byte
	for ci, maxBatch := range maxBatches {
		s := startServer(t, Config{
			Model:    fx.p.Model,
			MaxBatch: maxBatch,
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
				t.Fatalf("config %d stream %d: %v", ci, k, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("config %d: Close: %v", ci, err)
		}
		if ci == 0 {
			baseline = got
			continue
		}
		for k := range got {
			if string(got[k]) != string(baseline[k]) {
				t.Fatalf("config %d (maxBatch=%d): stream %d responses differ from config 0",
					ci, maxBatch, k)
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
