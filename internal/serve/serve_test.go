package serve

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"path/filepath"
	"testing"
	"time"

	"voyager/internal/metrics"
	"voyager/internal/tracing"
)

// TestMalformedFrameIsolatedToConnection: a client sending garbage gets an
// error response and its connection closed; the daemon and other
// connections keep serving. This is the live-daemon counterpart of the
// decoder fuzz target.
func TestMalformedFrameIsolatedToConnection(t *testing.T) {
	fixture(t)
	s := startServer(t, Config{Model: fx.p.Model})
	addr := s.Addr().String()

	// A healthy connection established before the attack...
	healthy, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = healthy.Close() }()

	// ...a connection that sends a correctly-framed but malformed payload
	// (bad version) and must get a status-error reply, then EOF...
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	payload := EncodeRequest(nil, Request{Op: OpPredict})
	payload[4] = 99 // corrupt the version byte
	if _, err := bad.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(bad)
	respPayload, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("malformed frame got no error response: %v", err)
	}
	var resp Response
	if err := DecodeResponse(respPayload, &resp); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if resp.Status != StatusError {
		t.Fatalf("status %d, want StatusError", resp.Status)
	}
	if _, err := ReadFrame(br, nil); err == nil {
		t.Fatal("connection stayed open after protocol error")
	}
	_ = bad.Close()

	// ...and a connection whose hostile length prefix (1 GiB) must be cut
	// off without a response and without touching the daemon.
	hostile, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := hostile.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := bufio.NewReader(hostile).ReadByte(); err == nil {
		t.Fatal("oversized-length connection got a byte back, want close")
	}
	_ = hostile.Close()

	// The healthy connection — and a brand new one — still serve.
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy conn broken by another conn's garbage: %v", err)
	}
	a := fx.tr.Accesses[0]
	if _, err := healthy.Predict(1, a.PC, a.Addr, false); err != nil {
		t.Fatalf("healthy conn predict: %v", err)
	}
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after attack: %v", err)
	}
	if err := fresh.Ping(); err != nil {
		t.Fatalf("fresh conn: %v", err)
	}
	_ = fresh.Close()
}

// TestIdleSessionEviction: sessions idle past IdleTimeout are evicted by
// the janitor (count drops, metric increments); OpClose drops them
// immediately; and a fresh request after eviction transparently restarts
// the stream's context.
func TestIdleSessionEviction(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	s := startServer(t, Config{
		Model:       fx.p.Model,
		Table:       fx.tab,
		IdleTimeout: 20 * time.Millisecond,
		Metrics:     reg,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	a := fx.tr.Accesses[0]
	for id := uint64(0); id < 3; id++ {
		if _, err := cl.Predict(id, a.PC, a.Addr, true); err != nil {
			t.Fatalf("predict: %v", err)
		}
	}
	if got := s.Sessions(); got != 3 {
		t.Fatalf("sessions = %d, want 3", got)
	}
	if err := cl.CloseStream(2); err != nil {
		t.Fatalf("CloseStream: %v", err)
	}
	if got := s.Sessions(); got != 2 {
		t.Fatalf("sessions after OpClose = %d, want 2", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never evicted: %d sessions still live", s.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("serve_sessions_evicted_total").Value(); got != 2 {
		t.Fatalf("evicted counter = %d, want 2", got)
	}

	// The evicted stream serves again from a fresh context: its first
	// response must equal any first-access response (stream restart
	// semantics), which the fast differential pins as off.Access(0, a).
	r, err := cl.Predict(0, a.PC, a.Addr, true)
	if err != nil {
		t.Fatalf("predict after eviction: %v", err)
	}
	if r.Status != StatusOK {
		t.Fatalf("status %d after eviction", r.Status)
	}
	if got := s.Sessions(); got != 1 {
		t.Fatalf("sessions after revival = %d, want 1", got)
	}
}

// TestServeMetricsSurface: the SLO instruments land on the registry with
// plausible values after real traffic, and the traced request lifecycle
// exports a validator-clean timeline.
func TestServeMetricsSurface(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	tracer := tracing.New(tracing.Options{Path: filepath.Join(t.TempDir(), "spans.json")})
	s := startServer(t, Config{
		Model:    fx.p.Model,
		Table:    fx.tab,
		MaxBatch: 4,
		Metrics:  reg,
		Tracer:   tracer,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	const reqs = 20
	for j := 0; j < reqs; j++ {
		a := fx.tr.Accesses[j]
		if _, err := cl.Predict(5, a.PC, a.Addr, j%2 == 0); err != nil {
			t.Fatalf("predict %d: %v", j, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close validates the exported timeline (nesting, pairing) itself.
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer export not validator-clean: %v", err)
	}
	if got := reg.Counter("serve_requests_total").Value(); got != reqs {
		t.Fatalf("serve_requests_total = %d, want %d", got, reqs)
	}
	fastN := reg.Counter("serve_requests_fast_total").Value()
	modelN := reg.Counter("serve_requests_model_total").Value()
	if fastN != reqs/2 || modelN != reqs/2 {
		t.Fatalf("tier split fast=%d model=%d, want %d each", fastN, modelN, reqs/2)
	}
	batches := reg.Counter("serve_batches_total").Value()
	rows := reg.Counter("serve_batch_rows_total").Value()
	if batches == 0 || rows != modelN {
		t.Fatalf("batches=%d rows=%d, want rows == model requests %d", batches, rows, modelN)
	}
	if reg.Histogram("serve_queue_wait_seconds").Count() != modelN {
		t.Fatal("queue-wait histogram count mismatch")
	}
	if reg.Histogram("serve_fast_request_seconds").Count() != fastN {
		t.Fatal("fast-latency histogram count mismatch")
	}
	var tierTotal uint64
	for _, name := range []string{"context", "markov", "miss"} {
		tierTotal += reg.Counter("serve_fast_tier_" + name + "_total").Value()
	}
	if tierTotal != fastN {
		t.Fatalf("fast tier counters sum %d, want %d", tierTotal, fastN)
	}
}

// TestNewValidation: config errors surface at construction, not at serve
// time.
func TestNewValidation(t *testing.T) {
	fixture(t)
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil model")
	}
	// A table compiled against a different vocabulary must be refused.
	bad := *fx.tab
	bad.VocabFP = fx.tab.VocabFP + 1
	if _, err := New(Config{Model: fx.p.Model, Table: &bad}); err == nil {
		t.Error("New accepted a table with a mismatched vocabulary fingerprint")
	}
}

// TestLatencyRecorder pins the exact-sample recorder: bounded retention,
// total counts, nearest-rank quantiles.
func TestLatencyRecorder(t *testing.T) {
	r := NewLatencyRecorder(4)
	for i := int64(1); i <= 6; i++ {
		r.record(i * 100)
	}
	if r.Count() != 6 {
		t.Fatalf("Count = %d, want 6 (drops still counted)", r.Count())
	}
	if got := len(r.Samples()); got != 4 {
		t.Fatalf("retained %d samples, want 4", got)
	}
	if q := r.Quantile(1.0); q != 400 {
		t.Fatalf("max of retained = %d, want 400", q)
	}
	if q := r.Quantile(0.5); q != 200 {
		t.Fatalf("p50 = %d, want 200", q)
	}
	var nilRec *LatencyRecorder
	nilRec.record(1) // nil-safe
	if nilRec.Count() != 0 || nilRec.Quantile(0.5) != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestLatencyRecorderNearestRank: over the samples 1..n the nearest-rank
// q-quantile is ceil(q·n) itself. Rounding q·n instead gives the 158th of
// 160 samples for the p99, not the 159th.
func TestLatencyRecorderNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 5, 100, 160, 1000} {
		r := NewLatencyRecorder(n)
		for i := n; i >= 1; i-- { // descending, so Quantile must sort
			r.record(int64(i))
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			want := int64(math.Ceil(q * float64(n)))
			if got := r.Quantile(q); got != want {
				t.Errorf("n=%d q=%v: Quantile = %d, want %d", n, q, got, want)
			}
		}
	}
}
