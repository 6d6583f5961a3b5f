package distill

import (
	"testing"

	"voyager/internal/trace"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

// mixedTrace interleaves the cycle with lines seen once. Those encode as
// deltas against the previous access, so a stream's first access (one of
// them) encodes differently unless it is encoded against its own line.
func mixedTrace(laps int) *trace.Trace {
	tr := &trace.Trace{Name: "mixed"}
	inst := uint64(0)
	for i, a := range cyclicTrace(laps).Accesses {
		if i%3 == 0 {
			inst += 5
			tr.Append(0x400100, (uint64(0x40+i)<<6|uint64(i*13%64))<<trace.LineBits, inst)
		}
		inst += 5
		tr.Append(a.PC, a.Addr, inst)
	}
	tr.Instructions = inst
	return tr
}

// encodedPredictor binds a barely trained FastConfig model to tr: enough for
// its pre-encoded tokens, which are all the History tests read.
func encodedPredictor(t *testing.T, tr *trace.Trace) *voyager.Predictor {
	t.Helper()
	cfg := voyager.FastConfig()
	cfg.EpochAccesses = tr.Len()
	cfg.PassesPerEpoch = 1
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return p
}

// At every position the windows a History copies out equal the offline
// ones over the pre-encoded trace, index clamped at 0: the pairs KeyAt
// hashes (and its key) and the triples buildBatch reads. Windows of 1,
// HistLen and SeqLen accesses come off one ring of max(SeqLen, HistLen),
// and after Reset the ring backfills again.
func TestHistoryMatchesKeyAtWindows(t *testing.T) {
	tr := mixedTrace(8)
	p := encodedPredictor(t, tr)
	seqLen, histLen := p.Cfg.SeqLen, 6
	h := NewHistory(p.Model.Vocab(), max(seqLen, histLen))
	pairs := make([]TokPair, histLen)
	triples := make([]TokTriple, seqLen)
	for pass := 0; pass < 2; pass++ {
		h.Reset()
		for i, a := range tr.Accesses {
			pcTok, line := h.Advance(a.PC, a.Addr)
			if wantPC, _, _ := p.TokensAt(i); pcTok != wantPC || line != p.LineAt(i) || h.Line() != line {
				t.Fatalf("pass %d access %d: Advance = (%d, %#x), Line %#x; want (%d, %#x)",
					pass, i, pcTok, line, h.Line(), wantPC, p.LineAt(i))
			}
			for _, n := range []int{1, histLen, seqLen} {
				h.Pairs(pairs[:n])
				if got, want := ContextKey(pcTok, pairs[:n]), KeyAt(p, i, n); got != want {
					t.Fatalf("pass %d access %d, n %d: key %#x, KeyAt %#x", pass, i, n, got, want)
				}
				for k, pr := range pairs[:n] {
					_, pg, off := p.TokensAt(max(i-n+1+k, 0))
					if pr != (TokPair{Page: int32(pg), Off: int32(off)}) {
						t.Fatalf("pass %d access %d, n %d: pair %d = %+v, want (%d, %d)", pass, i, n, k, pr, pg, off)
					}
				}
			}
			for _, n := range []int{1, seqLen} {
				h.Triples(triples[:n])
				for k, tt := range triples[:n] {
					pc, pg, off := p.TokensAt(max(i-n+1+k, 0))
					if tt != (TokTriple{PC: int32(pc), Page: int32(pg), Off: int32(off)}) {
						t.Fatalf("pass %d access %d, n %d: triple %d = %+v, want (%d, %d, %d)", pass, i, n, k, tt, pc, pg, off)
					}
				}
			}
		}
	}
}

// decideFixture is a vocabulary over four frequent lines on four pages and
// the slot words naming each, plus one slot that does not decode.
type decideFixture struct {
	voc        *vocab.Vocab
	lines      [4]uint64
	slot       [4]uint64
	pair       [4]TokPair
	undecoding uint64
}

func newDecideFixture() decideFixture {
	var f decideFixture
	tr := &trace.Trace{Name: "decide"}
	for i := range f.lines {
		f.lines[i] = uint64(0x10+i)<<trace.OffsetBits | uint64(3*i)
	}
	for lap := 0; lap < 2; lap++ {
		for _, ln := range f.lines {
			tr.Append(0x400000, ln<<trace.LineBits, 0)
		}
	}
	f.voc = vocab.Build(tr, vocab.DefaultOptions())
	for i, ln := range f.lines {
		pg, off := f.voc.EncodeAccess(ln, ln)
		f.pair[i] = TokPair{Page: int32(pg), Off: int32(off)}
		f.slot[i] = packSlot(int32(pg), int32(off), 0.25)
	}
	f.undecoding = packSlot(int32(f.voc.UnkPage()), 0, 0.25)
	return f
}

// handTable builds a table whose context subtable holds ctx[i] under
// ContextKey(pc0+i, hist) and whose Markov subtable holds markov under the
// trigger pair.
func handTable(hist []TokPair, pc0 int, ctx [][]uint64, markov []uint64) *Table {
	const log2, topK, probe = 6, 4, 8
	tab := &Table{
		Params: Params{HistLen: len(hist), TopK: topK, Log2Buckets: log2, MarkovLog2: log2, MaxProbe: probe},
		main:   newSubtable(log2, topK, probe),
		markov: newSubtable(log2, topK, probe),
	}
	prio := make([]float32, 1<<log2)
	for i, slots := range ctx {
		tab.main.insert(ContextKey(pc0+i, hist), 1, slots, prio)
	}
	if markov != nil {
		trig := hist[len(hist)-1]
		tab.markov.insert(PairKey(int(trig.Page), int(trig.Off)), 1, markov, make([]float32, 1<<log2))
	}
	return tab
}

// Table.Decide, one branch per case, on a hand-built table: the trigger is
// line 0, and each context (PC token) holds its own slots.
func TestDecideBranches(t *testing.T) {
	f := newDecideFixture()
	s := f.slot
	hist := []TokPair{f.pair[2], f.pair[0]}
	tab := handTable(hist, 0, [][]uint64{
		{s[0], s[1]},             // pc 0: a slot naming the trigger line
		{f.undecoding, s[1]},     // pc 1: a slot that does not decode
		{s[1], s[1], s[2]},       // pc 2: a repeated address
		{s[1], s[2], s[3]},       // pc 3: more slots than degree 2
		{s[2], s[0], s[0], s[1]}, // pc 4: skips amid hits
	}, []uint64{s[0]}) // the trigger pair's Markov slots: the trigger line only
	trig := f.lines[0]
	addr := func(i int) uint64 { return f.lines[i] << trace.LineBits }
	cand := func(i int) Candidate {
		return Candidate{PageTok: f.pair[i].Page, OffTok: f.pair[i].Off, Addr: addr(i)}
	}
	for _, tc := range []struct {
		name   string
		pc     int
		hist   []TokPair
		degree int
		tier   Tier
		want   []Candidate
	}{
		{"trigger line skipped", 0, hist, 4, TierKey, []Candidate{cand(1)}},
		{"undecodable slot skipped", 1, hist, 4, TierKey, []Candidate{cand(1)}},
		{"repeat dropped", 2, hist, 4, TierKey, []Candidate{cand(1), cand(2)}},
		{"degree cap", 3, hist, 2, TierKey, []Candidate{cand(1), cand(2)}},
		{"skips amid hits", 4, hist, 4, TierKey, []Candidate{cand(2), cand(1)}},
		{"markov hit, every slot skipped: no next line", 9, hist, 4, TierMarkov, nil},
		{"both tables miss: next line", 9, []TokPair{f.pair[3]}, 4, TierMiss,
			[]Candidate{{PageTok: -1, OffTok: -1, Addr: (trig + 1) << trace.LineBits}}},
	} {
		// Decide appends: a prefix already in dst stays and is not a repeat.
		prefix := Candidate{PageTok: 7, OffTok: 7, Addr: addr(1)}
		got, tier := tab.Decide(f.voc, tc.pc, tc.hist, trig, tc.degree, []Candidate{prefix})
		if tier != tc.tier || len(got) != 1+len(tc.want) || got[0] != prefix {
			t.Fatalf("%s: tier %v, got %+v; want tier %v, %+v after the prefix", tc.name, tier, got, tc.tier, tc.want)
		}
		for i, c := range tc.want {
			if got[1+i] != c {
				t.Fatalf("%s: candidate %d = %+v, want %+v", tc.name, i, got[1+i], c)
			}
		}
	}
}

// The fast tier's steady state, Advance → Pairs → Decide with reused
// buffers, allocates nothing: prefetchd runs it on every fast-tier request
// and the distilled replayer on every access.
func TestFastPathAllocFree(t *testing.T) {
	f := newDecideFixture()
	hist := []TokPair{f.pair[2], f.pair[3], f.pair[0]}
	const pc = 0x400000
	tab := handTable(hist, f.voc.PCToken(pc), [][]uint64{{f.slot[1], f.slot[2]}}, []uint64{f.slot[3]})
	h := NewHistory(f.voc, len(hist))
	pairs := make([]TokPair, len(hist))
	cands := make([]Candidate, 0, 2)
	order := []int{2, 3, 0, 1} // the context's lines, a hit, then misses
	tiers := [NumTiers]int{}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ln := f.lines[order[i%len(order)]]
		i++
		pcTok, line := h.Advance(pc, ln<<trace.LineBits)
		h.Pairs(pairs)
		var tier Tier
		cands, tier = tab.Decide(f.voc, pcTok, pairs, line, 2, cands[:0])
		tiers[tier]++
	})
	if allocs != 0 {
		t.Fatalf("Advance → Pairs → Decide: %v allocs per request, want 0", allocs)
	}
	if tiers[TierKey] == 0 || tiers[TierMiss] == 0 {
		t.Fatalf("fast path did not reach both a hit and a miss: %v", tiers)
	}
}
