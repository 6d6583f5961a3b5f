package serve

import (
	"fmt"
	"sync"
	"testing"

	"voyager/internal/prefetch/distilled"
)

// startServer spins up a server on loopback and returns it with a cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// replayStream replays the fixture trace as one client stream and checks
// every response bit-for-bit against the offline PredictAt oracle.
func replayStream(s *Server, streamID uint64, fast bool) error {
	cl, err := Dial(s.Addr().String())
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	for pos, a := range fx.tr.Accesses {
		r, err := cl.Predict(streamID, a.PC, a.Addr, fast)
		if err != nil {
			return fmt.Errorf("pos %d: %v", pos, err)
		}
		want := wantResponse(pos)
		if err := compareCands(r.Cands, want); err != nil {
			return fmt.Errorf("stream %d pos %d: %v", streamID, pos, err)
		}
	}
	return cl.CloseStream(streamID)
}

func compareCands(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("candidate %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestServingGoldenDifferential is the serving-path golden differential:
// N concurrent client streams replay the trace through a live daemon and
// every response must be bit-identical (token ids, float64 score bits,
// decoded addresses) to offline PredictAt on the same model — served from
// a Workers=1 and a Workers=4 model (the subtests' replicas=N), one batcher
// per CPU. This is the end-to-end proof that session encoding, window
// snapshots, admission batching and the inference workers perturb nothing.
func TestServingGoldenDifferential(t *testing.T) {
	fixture(t)
	for _, replicas := range []int{1, 4} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			model := fx.p.Model
			if replicas == 4 {
				model = fx.m4
			}
			s := startServer(t, Config{
				Model:    model,
				MaxBatch: 16,
			})
			const streams = 4
			errs := make([]error, streams)
			var wg sync.WaitGroup
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					errs[id] = replayStream(s, uint64(id), false)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("stream %d: %v", i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestServingFastTierDifferential proves the inline fast tier returns
// exactly what the offline distilled replayer returns for the same stream:
// same addresses in the same order, including the next-line degradation on
// full table misses.
func TestServingFastTierDifferential(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{Model: fx.p.Model, Table: fx.tab})

	off, err := distilled.New(fx.tab, fx.p.Model.Vocab(), fx.degree)
	if err != nil {
		t.Fatalf("distilled.New: %v", err)
	}
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	for pos, a := range fx.tr.Accesses {
		r, err := cl.Predict(99, a.PC, a.Addr, true)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if r.Tier != TierFast {
			t.Fatalf("pos %d: tier %d, want fast", pos, r.Tier)
		}
		want := off.Access(pos, a)
		if len(r.Cands) != len(want) {
			t.Fatalf("pos %d: %d candidates, want %d", pos, len(r.Cands), len(want))
		}
		for i, addr := range want {
			if r.Cands[i].Addr != addr {
				t.Fatalf("pos %d cand %d: addr %#x, want %#x", pos, i, r.Cands[i].Addr, addr)
			}
		}
	}
}

// TestFastFlagFallsBackWithoutTable: FlagFast on a server with no table is
// answered by the model tier (and still matches the oracle).
func TestFastFlagFallsBackWithoutTable(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{Model: fx.p.Model})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	for pos := 0; pos < 16; pos++ {
		a := fx.tr.Accesses[pos]
		r, err := cl.Predict(1, a.PC, a.Addr, true)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if r.Tier != TierModel {
			t.Fatalf("pos %d: tier %d, want model fallback", pos, r.Tier)
		}
		if err := compareCands(r.Cands, wantResponse(pos)); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
	}
}
