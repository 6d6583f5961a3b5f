package main

import (
	"os"
	"path/filepath"
	"testing"

	"voyager/internal/distill"
	"voyager/internal/serve"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
)

// testConfig is the tiny-but-real model configuration the binary's
// helpers are exercised with: small enough to train in seconds, shaped
// exactly like the flag-built config in main (DropoutKeep forced to 1
// so prediction is deterministic, serving's correctness precondition).
func testConfig(n int) voyager.Config {
	cfg := voyager.ScaledConfig()
	cfg.Seed = 7
	cfg.Hidden = 8
	cfg.Degree = 1
	cfg.DropoutKeep = 1
	cfg.PassesPerEpoch = 1
	cfg.EpochAccesses = n
	cfg.Workers = 1
	return cfg
}

func TestLoadTrace(t *testing.T) {
	tr, err := loadTrace("", "cc", 7, 600)
	if err != nil {
		t.Fatalf("bench mode: %v", err)
	}
	if len(tr.Accesses) == 0 {
		t.Fatal("bench mode produced an empty trace")
	}

	// File mode must round-trip what bench mode generated.
	path := filepath.Join(t.TempDir(), "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatalf("trace.Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tr2, err := loadTrace(path, "", 7, 600)
	if err != nil {
		t.Fatalf("file mode: %v", err)
	}
	if len(tr2.Accesses) != len(tr.Accesses) {
		t.Fatalf("file mode read %d accesses, want %d", len(tr2.Accesses), len(tr.Accesses))
	}

	if _, err := loadTrace("", "", 7, 600); err == nil {
		t.Fatal("neither -bench nor -trace must be an error")
	}
	if _, err := loadTrace(filepath.Join(t.TempDir(), "missing.bin"), "", 7, 600); err == nil {
		t.Fatal("missing trace file must be an error")
	}
}

// TestBuildModelAndReplay drives the binary's whole serving lifecycle
// in-process: train + save weights (the `voyager -save` side), reload
// them through buildModel, serve the model with a distilled fast tier,
// and replay both tiers through runReplay — the README worked example
// minus the TCP flags.
func TestBuildModelAndReplay(t *testing.T) {
	tr, err := loadTrace("", "cc", 7, 600)
	if err != nil {
		t.Fatalf("loadTrace: %v", err)
	}
	cfg := testConfig(len(tr.Accesses))

	// Train-in-process path (no weights file).
	trained, err := buildModel(tr, cfg, "")
	if err != nil {
		t.Fatalf("buildModel (train): %v", err)
	}

	// Weights path: save from a training run, reload into a fresh model.
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	wpath := filepath.Join(t.TempDir(), "m.w")
	wf, err := os.Create(wpath)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := p.SaveWeights(wf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	loaded, err := buildModel(tr, cfg, wpath)
	if err != nil {
		t.Fatalf("buildModel (weights): %v", err)
	}
	if _, err := buildModel(tr, cfg, filepath.Join(t.TempDir(), "missing.w")); err == nil {
		t.Fatal("missing weights file must be an error")
	}
	_ = trained

	// Serve the reloaded model plus a table compiled from the teacher,
	// then replay both tiers through the client-mode entry point.
	tab := distill.Compile(p, 0, p.NumAccesses(), distill.DefaultParams())
	srv, err := serve.New(serve.Config{
		Model:    loaded,
		Table:    tab,
		Degree:   cfg.Degree,
		MaxBatch: 8,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()
	addr := srv.Addr().String()

	tpath := filepath.Join(t.TempDir(), "client.json")
	if err := runReplay(replayOptions{addr: addr, streams: 2, perStream: 40, fast: true,
		quality: true, traceOut: tpath}, tr); err != nil {
		t.Fatalf("runReplay (fast, quality, traced): %v", err)
	}
	data, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatalf("client trace not written: %v", err)
	}
	st, err := tracing.ValidateBytes(data)
	if err != nil {
		t.Fatalf("client trace invalid: %v", err)
	}
	if st.AsyncSpans != 2*40 {
		t.Fatalf("client trace has %d rpc spans, want %d", st.AsyncSpans, 2*40)
	}
	if err := runReplay(replayOptions{addr: addr, streams: 2, perStream: 10}, tr); err != nil {
		t.Fatalf("runReplay (model): %v", err)
	}
	if err := runReplay(replayOptions{addr: "127.0.0.1:1", streams: 1, perStream: 1, fast: true}, tr); err == nil {
		t.Fatal("replay against a dead address must be an error")
	}
}
