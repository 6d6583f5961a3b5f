package workloads

import (
	"fmt"
	"hash/fnv"
	"testing"

	"voyager/internal/trace"
)

func smallCfg() Config {
	return Config{Seed: 7, Scale: 1, MaxAccesses: 20_000}
}

func TestAllGeneratorsProduceTraces(t *testing.T) {
	for _, spec := range All {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Gen(smallCfg())
			if tr.Name != spec.Name {
				t.Fatalf("trace name %q != benchmark %q", tr.Name, spec.Name)
			}
			if tr.Len() == 0 {
				t.Fatalf("empty trace")
			}
			if tr.Len() > 20_000 {
				t.Fatalf("MaxAccesses not honored: %d", tr.Len())
			}
			if tr.Instructions < uint64(tr.Len()) {
				t.Fatalf("instructions %d < accesses %d", tr.Instructions, tr.Len())
			}
			// Instruction indices must be strictly increasing.
			var prev uint64
			for i, a := range tr.Accesses {
				if a.Inst <= prev && i > 0 {
					t.Fatalf("non-monotonic inst at %d: %d after %d", i, a.Inst, prev)
				}
				prev = a.Inst
			}
			s := trace.ComputeStats(tr)
			if s.PCs < 2 || s.Pages < 2 || s.Addresses < 10 {
				t.Fatalf("implausible stats: %+v", s)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, spec := range All {
		a := spec.Gen(smallCfg())
		b := spec.Gen(smallCfg())
		if a.Len() != b.Len() {
			t.Fatalf("%s: nondeterministic length %d vs %d", spec.Name, a.Len(), b.Len())
		}
		for i := range a.Accesses {
			if a.Accesses[i] != b.Accesses[i] {
				t.Fatalf("%s: nondeterministic access %d", spec.Name, i)
			}
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	cfg2 := smallCfg()
	cfg2.Seed = 8
	a := PageRank(smallCfg())
	b := PageRank(cfg2)
	same := a.Len() == b.Len()
	if same {
		for i := range a.Accesses {
			if a.Accesses[i] != b.Accesses[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical traces")
	}
}

// Table 2 shape: the Google workloads must have far more PCs than the
// SPEC/GAP ones, and ads more than search.
func TestGooglePCCounts(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 1, MaxAccesses: 60_000}
	search := trace.ComputeStats(Search(cfg))
	ads := trace.ComputeStats(Ads(cfg))
	pr := trace.ComputeStats(PageRank(cfg))
	if search.PCs <= 4*pr.PCs {
		t.Fatalf("search PCs (%d) should dwarf pr PCs (%d)", search.PCs, pr.PCs)
	}
	if ads.PCs <= search.PCs {
		t.Fatalf("ads PCs (%d) should exceed search PCs (%d)", ads.PCs, search.PCs)
	}
}

// mcf must have the largest footprint relative to its peers (Table 2: 4.6M
// addresses vs hundreds of K) and fresh regions (compulsory misses).
func TestMCFFootprint(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 1, MaxAccesses: 120_000}
	mcf := trace.ComputeStats(MCF(cfg))
	bfs := trace.ComputeStats(BFS(cfg))
	if mcf.Addresses <= 2*bfs.Addresses {
		t.Fatalf("mcf addresses (%d) should dwarf bfs (%d)", mcf.Addresses, bfs.Addresses)
	}
}

// The soplex generator must emit the Figure 16 pattern: vec loads issued by
// two distinct PCs, each always preceded by the same upd PC.
func TestSoplexBranchSharedPattern(t *testing.T) {
	tr := Soplex(Config{Seed: 5, Scale: 1, MaxAccesses: 50_000})
	// Find the upd PC and the two vec PCs: upd is the PC that immediately
	// precedes two different successors accessing the same address.
	followers := make(map[uint64]map[uint64]bool) // pc -> set of next pcs
	for i := 0; i+1 < tr.Len(); i++ {
		cur, next := tr.Accesses[i], tr.Accesses[i+1]
		if followers[cur.PC] == nil {
			followers[cur.PC] = make(map[uint64]bool)
		}
		followers[cur.PC][next.PC] = true
	}
	// There must exist a PC with ≥2 successors whose successors' loads hit
	// the same line as each other at matching positions (the vec PCs).
	found := false
	for _, succ := range followers {
		if len(succ) >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no branch-shared pattern found in soplex trace")
	}
}

func TestByNameAndGenerate(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("expected error for unknown benchmark")
	}
	tr, err := Generate("bfs", smallCfg())
	if err != nil || tr.Name != "bfs" {
		t.Fatalf("Generate bfs: %v", err)
	}
	if len(Names()) != 11 {
		t.Fatalf("expected 11 benchmarks, got %d", len(Names()))
	}
	if len(SimulatableNames()) != 9 {
		t.Fatalf("expected 9 simulatable benchmarks, got %d", len(SimulatableNames()))
	}
}

// Temporal repeatability: cc sweeps edges in the same order each iteration,
// so the trace must contain long repeated subsequences. We measure this as
// next-line predictability of a last-successor oracle on the second half.
func TestCCTemporalCorrelation(t *testing.T) {
	tr := CC(Config{Seed: 4, Scale: 1, MaxAccesses: 60_000})
	succ := make(map[uint64]uint64)
	correct, total := 0, 0
	for i := 0; i+1 < tr.Len(); i++ {
		cur := trace.Line(tr.Accesses[i].Addr)
		next := trace.Line(tr.Accesses[i+1].Addr)
		if i > tr.Len()/2 {
			if p, ok := succ[cur]; ok {
				total++
				if p == next {
					correct++
				}
			}
		}
		succ[cur] = next
	}
	if total == 0 {
		t.Fatalf("no predictions")
	}
	rate := float64(correct) / float64(total)
	if rate < 0.4 {
		t.Fatalf("cc global-stream predictability %.2f, want >= 0.4 (temporal structure missing)", rate)
	}
}

func BenchmarkGeneratePageRank(b *testing.B) {
	cfg := Config{Seed: 1, Scale: 1, MaxAccesses: 50_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PageRank(cfg)
	}
}

// TestGoogleTracesPinned pins the search and ads traces: an FNV-64a hash
// over each access's "%x %x %x;" of PC, Addr and Inst, at seed 1 and
// 24,000 accesses. Both generators hash with 64-bit products, so the
// traces must not move when the code builds for a 32-bit int.
func TestGoogleTracesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  Generator
		want uint64
	}{
		{"search", Search, 0x53ded1fcde6b1d6e},
		{"ads", Ads, 0xfad565d79f1e4163},
	} {
		tr := c.gen(Config{Seed: 1, Scale: 1, MaxAccesses: 24_000})
		h := fnv.New64a()
		for _, a := range tr.Accesses {
			fmt.Fprintf(h, "%x %x %x;", a.PC, a.Addr, a.Inst)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d accesses hash to %#x, want %#x", c.name, tr.Len(), got, c.want)
		}
	}
}
