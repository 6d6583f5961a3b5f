package serve

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/voyager"
)

// TestBatcherRunsWithoutWaitingForRows: a lone model-tier request is
// answered at once even with MaxWait set to an hour, because the batcher
// never waits for rows that are not queued yet. A batcher that waited out a
// fill timer would hold this request for the hour, failing the client's 10 s
// deadline.
func TestBatcherRunsWithoutWaitingForRows(t *testing.T) {
	fixture(t)
	s, err := New(Config{Model: fx.p.Model, MaxBatch: 32, MaxWait: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	c, err := net.DialTimeout("tcp", s.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("SetDeadline: %v", err)
	}
	cl := NewClient(c)
	defer func() { _ = cl.Close() }()

	const pos = 0
	a := fx.tr.Accesses[pos]
	r, err := cl.Predict(1, a.PC, a.Addr, false)
	if err != nil {
		// The server is left running: its Close would wait for the held
		// request too.
		t.Fatalf("lone request not answered within 10 s: %v", err)
	}
	if err := compareCands(r.Cands, wantResponse(pos)); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBatcherCoalescesQueuedRows: requests that queue while the model is
// busy share the next batch. Ten requests posted before the batchers start
// run as three batches (4, 4 and 2 rows at MaxBatch 4), and each row gets
// its offline prediction. At GOMAXPROCS 4 the first batch also starts the
// other three batchers. The count does not depend on the batchers taking
// turns (it held with the turn removed), so this test does not pin the
// turn; DESIGN §5.9 gives its measured throughput case.
func TestBatcherCoalescesQueuedRows(t *testing.T) {
	fixture(t)
	setProcs(t, 4)
	reg := metrics.NewRegistry()
	s, err := New(Config{Model: fx.p.Model, MaxBatch: 4, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seqLen := fx.p.Model.Config().SeqLen
	const rows = 10
	positions := make([]int, rows)
	pends := make([]pending, rows)
	for i := range pends {
		pos := seqLen + 37*i
		row := make([]distill.TokTriple, seqLen)
		for j := range row {
			pc, page, off := fx.p.TokensAt(pos - seqLen + 1 + j)
			row[j] = distill.TokTriple{PC: int32(pc), Page: int32(page), Off: int32(off)}
		}
		positions[i] = pos
		pends[i] = pending{row: row, line: fx.p.LineAt(pos), enq: time.Now(),
			reply: make(chan []voyager.Candidate, 1)}
		s.queue <- &pends[i] // QueueDepth defaults to 4x MaxBatch, so this never blocks
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i, pos := range positions {
		var got []voyager.Candidate
		select {
		case got = <-pends[i].reply:
		case <-time.After(10 * time.Second):
			t.Fatalf("row %d not answered within 10 s", i)
		}
		want := fx.want[pos]
		if len(got) != len(want) {
			t.Fatalf("row %d (pos %d): %d candidates, want %d", i, pos, len(got), len(want))
		}
		for k := range got {
			if got[k].PageTok != want[k].PageTok || got[k].OffTok != want[k].OffTok ||
				math.Float64bits(got[k].Score) != math.Float64bits(want[k].Score) {
				t.Fatalf("row %d (pos %d) candidate %d = %+v, want %+v", i, pos, k, got[k], want[k])
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reg.Gauge("serve_inference_workers").Value(); got != 4 {
		t.Errorf("serve_inference_workers = %v, want 4", got)
	}
	if got := reg.Counter("serve_batches_total").Value(); got != 3 {
		t.Errorf("serve_batches_total = %d, want 3", got)
	}
	if got := reg.Counter("serve_batch_rows_total").Value(); got != rows {
		t.Errorf("serve_batch_rows_total = %d, want %d", got, rows)
	}
}

// TestBatchersStartOnFirstModelBatch: the server runs one batcher per CPU
// but builds their replicas only for its first model-tier batch, so a
// server that answers from the distilled table alone runs one batcher, on
// the model itself. At GOMAXPROCS 4, fast-tier answers leave
// serve_inference_workers at 1 and run no batch; four concurrent
// model-tier streams then start the other three batchers, and every answer
// matches offline PredictAt.
func TestBatchersStartOnFirstModelBatch(t *testing.T) {
	fixture(t)
	setProcs(t, 4)
	reg := metrics.NewRegistry()
	s := startServer(t, Config{Model: fx.p.Model, Table: fx.tab, Metrics: reg})
	workers := reg.Gauge("serve_inference_workers")

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	for pos, a := range fx.tr.Accesses[:200] {
		if r, err := cl.Predict(100, a.PC, a.Addr, true); err != nil || r.Tier != TierFast {
			t.Fatalf("pos %d: fast-tier predict: %+v, %v", pos, r, err)
		}
	}
	if got := workers.Value(); got != 1 {
		t.Fatalf("serve_inference_workers = %v after fast-tier answers only, want 1", got)
	}
	if got := reg.Counter("serve_batches_total").Value(); got != 0 {
		t.Fatalf("serve_batches_total = %d after fast-tier answers only, want 0", got)
	}

	const streams = 4
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = replayStream(s, uint64(k+1), false)
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("model-tier stream %d: %v", k+1, err)
		}
	}
	if got := workers.Value(); got != 4 {
		t.Errorf("serve_inference_workers = %v after model-tier answers, want 4", got)
	}
}
