// Package distill compiles a trained Voyager model into a static lookup
// table — the tabularization pass that turns a full-LSTM forward per
// prediction into an O(1) hash probe ("Attention, Distillation, and
// Tabularization", arXiv 2401.06362; compact probability tables as in
// Pangloss, arXiv 1906.00877).
//
// The compiler runs the teacher model over a calibration range of the
// trace in teacher-forcing mode, hashes each trigger's context — the PC
// token plus the HistLen most recent (page, offset) token pairs — into a
// 64-bit key, and accumulates the teacher's top-k candidate distribution
// per key. The result is an immutable pair of open-addressing subtables
// backed by flat uint64 arrays (mmap-friendly: no pointers, fixed-width
// slots): a full-context table, and a Markov-style fallback table keyed by
// the trigger (page, offset) pair alone for contexts never seen during
// calibration. Candidate probabilities are stored as IEEE binary16 via the
// internal/tensor/quant machinery, packed next to the token pair in a
// single slot word.
package distill

import (
	"fmt"
	"sort"

	"voyager/internal/sortkeys"
	"voyager/internal/tensor/quant"
	"voyager/internal/trace"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

// FNV-1a constants; keys are built by xor-multiply folding whole 64-bit
// words rather than bytes (the domain is small integers, the avalanche of
// the 64-bit prime is enough, and the fold is branch-free in the hot path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime64
}

// TokPair is one (page, offset) token pair of the context history.
type TokPair struct {
	Page, Off int32
}

// ContextKey hashes a full trigger context: the trigger's PC token plus the
// history of (page, offset) token pairs, oldest first. Tokens are offset by
// one so token id 0 still perturbs the hash. The zero hash value is
// reserved as the empty-bucket marker.
func ContextKey(pcTok int, hist []TokPair) uint64 {
	h := mix(fnvOffset64, uint64(pcTok)+1)
	for _, p := range hist {
		h = mix(h, uint64(uint32(p.Page))+1)
		h = mix(h, uint64(uint32(p.Off))+1)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// PairKey hashes a single (page, offset) token pair — the key domain of the
// Markov fallback table.
func PairKey(pageTok, offTok int) uint64 {
	h := mix(mix(fnvOffset64, uint64(pageTok)+1), uint64(offTok)+1)
	if h == 0 {
		h = 1
	}
	return h
}

// Params sizes the distilled table. The zero value is not usable; call
// withDefaults (Compile does) or start from DefaultParams.
type Params struct {
	// HistLen is the number of trailing (page, offset) token pairs folded
	// into the context key, including the trigger itself.
	HistLen int `json:"hist_len"`
	// TopK is the number of candidate slots stored per key.
	TopK int `json:"top_k"`
	// Log2Buckets sizes the full-context subtable at 1<<Log2Buckets buckets.
	Log2Buckets int `json:"log2_buckets"`
	// MarkovLog2 sizes the fallback subtable at 1<<MarkovLog2 buckets.
	MarkovLog2 int `json:"markov_log2"`
	// MaxProbe bounds the linear-probe window of both subtables.
	MaxProbe int `json:"max_probe"`
}

// DefaultParams is the configuration used by the CLI flags and the bench
// harness headline entry: a ~1.5 MB table at the bench trace scale.
func DefaultParams() Params {
	return Params{HistLen: 3, TopK: 4, Log2Buckets: 14, MarkovLog2: 12, MaxProbe: 16}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.HistLen <= 0 {
		p.HistLen = d.HistLen
	}
	if p.TopK <= 0 {
		p.TopK = d.TopK
	}
	if p.Log2Buckets <= 0 {
		p.Log2Buckets = d.Log2Buckets
	}
	if p.MarkovLog2 <= 0 {
		p.MarkovLog2 = d.MarkovLog2
	}
	if p.MaxProbe <= 0 {
		p.MaxProbe = d.MaxProbe
	}
	return p
}

// packSlot packs one candidate into a slot word:
// page token (32 bits) | offset token (16 bits) | binary16 probability.
// The probability half is forced nonzero so a populated slot can never
// equal the all-zero empty marker (a true 0-probability candidate would
// never be stored anyway).
func packSlot(page, off int32, prob float32) uint64 {
	pf := quant.F32ToF16(prob)
	if pf == 0 {
		pf = 1 // smallest subnormal: "present, vanishing probability"
	}
	return uint64(uint32(page))<<32 | uint64(uint16(off))<<16 | uint64(pf)
}

// DecodeSlot unpacks a slot word into its (page, offset) tokens and the
// binary16-rounded probability. Slot value 0 means "empty" and must be
// filtered by the caller before decoding.
func DecodeSlot(s uint64) (pageTok, offTok int, prob float32) {
	return int(uint32(s >> 32)), int(uint16(s >> 16)), quant.F16ToF32(uint16(s))
}

// slotTokens is DecodeSlot without the probability, which Decide does not
// read: the binary16 conversion is a call per slot on the fast path.
func slotTokens(s uint64) (pageTok, offTok int) {
	return int(uint32(s >> 32)), int(uint16(s >> 16))
}

// subtable is one open-addressing hash table with bounded linear probing:
// keys[i] holds the full 64-bit key (0 = empty), slots[i*topK : (i+1)*topK]
// its packed candidates. Inserts always take the first empty bucket in the
// probe window and evictions overwrite in place, so probe chains never
// contain holes and lookups may stop at the first empty bucket.
type subtable struct {
	log2     int
	topK     int
	maxProbe int
	keys     []uint64
	slots    []uint64
}

func newSubtable(log2, topK, maxProbe int) *subtable {
	n := 1 << log2
	return &subtable{
		log2:     log2,
		topK:     topK,
		maxProbe: maxProbe,
		keys:     make([]uint64, n),
		slots:    make([]uint64, n*topK),
	}
}

func (s *subtable) mask() uint64 { return uint64(len(s.keys) - 1) }

// lookup returns the slot words for key, or nil when absent. The returned
// slice aliases the table and may contain trailing empty (zero) slots.
func (s *subtable) lookup(key uint64) []uint64 {
	i := key & s.mask()
	for p := 0; p < s.maxProbe; p++ {
		switch s.keys[i] {
		case key:
			return s.slots[int(i)*s.topK : (int(i)+1)*s.topK]
		case 0:
			return nil
		}
		i = (i + 1) & s.mask()
	}
	return nil
}

// insert places key's packed slots, using prio (a per-bucket weight array
// live only during the build) to keep the heavier key when the probe window
// is saturated. Keys are unique per build, so the key-match probe case
// cannot occur.
func (s *subtable) insert(key uint64, weight float32, packed []uint64, prio []float32) {
	i := key & s.mask()
	minAt, minW := -1, float32(0)
	for p := 0; p < s.maxProbe; p++ {
		if s.keys[i] == 0 {
			s.place(i, key, weight, packed, prio)
			return
		}
		if minAt < 0 || prio[i] < minW {
			minAt, minW = int(i), prio[i]
		}
		i = (i + 1) & s.mask()
	}
	if weight > minW {
		s.place(uint64(minAt), key, weight, packed, prio)
	}
}

func (s *subtable) place(i, key uint64, weight float32, packed []uint64, prio []float32) {
	s.keys[i] = key
	prio[i] = weight
	dst := s.slots[int(i)*s.topK : (int(i)+1)*s.topK]
	for k := range dst {
		dst[k] = 0
	}
	copy(dst, packed)
}

func (s *subtable) count() int {
	n := 0
	for _, k := range s.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// Tier identifies which level of the fallback chain answered a lookup.
type Tier int

const (
	// TierKey: the full-context key hit the main table.
	TierKey Tier = iota
	// TierMarkov: the context missed but the trigger (page, offset) pair
	// hit the Markov fallback table.
	TierMarkov
	// TierMiss: both tables missed (Decide answers the next line).
	TierMiss
	// NumTiers sizes per-tier counters.
	NumTiers
)

// String names the tier for stats output.
func (t Tier) String() string {
	switch t {
	case TierKey:
		return "context"
	case TierMarkov:
		return "markov"
	default:
		return "miss"
	}
}

// Table is the immutable distilled predictor: a full-context subtable plus
// a Markov fallback subtable, both flat uint64 arrays.
type Table struct {
	Params
	// VocabFP is the fingerprint of the vocabulary the table was compiled
	// against (vocab.Fingerprint); replay against any other vocabulary is
	// rejected at load/bind time.
	VocabFP uint64

	main   *subtable
	markov *subtable
}

// Lookup resolves a context key through the fallback chain: full-context
// table first, then the Markov table under the trigger-pair key. The
// returned slots alias the table (read-only; trailing zero slots are
// empty), nil on a full miss.
func (t *Table) Lookup(ctxKey, trigKey uint64) ([]uint64, Tier) {
	if s := t.main.lookup(ctxKey); s != nil {
		return s, TierKey
	}
	if s := t.markov.lookup(trigKey); s != nil {
		return s, TierMarkov
	}
	return nil, TierMiss
}

// Candidate is one line Decide chose to prefetch: its address and the slot
// tokens that named it (-1, -1 for the next-line answer to a full miss).
type Candidate struct {
	PageTok, OffTok int32
	Addr            uint64
}

// Decide answers one trigger through the fallback chain: it looks up the
// context — the trigger's PC token and hist, the HistLen most recent
// (page, offset) pairs, oldest first and the trigger last — decodes each
// slot against the trigger's cache line, skips a slot that does not decode
// or names the trigger line itself or an address already chosen, and
// appends at most degree candidates to dst. When both tables miss it
// appends the next line. A context or Markov hit whose slots are all
// skipped appends nothing. Decide allocates nothing when dst has room for
// degree more candidates.
//
//hot:path
func (t *Table) Decide(voc *vocab.Vocab, pcTok int, hist []TokPair, line uint64, degree int, dst []Candidate) ([]Candidate, Tier) {
	trig := hist[len(hist)-1]
	slots, tier := t.Lookup(ContextKey(pcTok, hist), PairKey(int(trig.Page), int(trig.Off)))
	base := len(dst)
next:
	for _, s := range slots {
		if s == 0 || len(dst)-base == degree {
			break
		}
		pg, off := slotTokens(s)
		cand, ok := voc.Decode(line, pg, off)
		if !ok || cand == line {
			continue
		}
		addr := cand << trace.LineBits
		for _, c := range dst[base:] {
			if c.Addr == addr {
				continue next
			}
		}
		//lint:ignore hotalloc at most degree appends; callers reuse a buffer with that room
		dst = append(dst, Candidate{PageTok: int32(pg), OffTok: int32(off), Addr: addr})
	}
	if tier == TierMiss {
		//lint:ignore hotalloc one append; callers reuse a buffer with room for degree ≥ 1
		dst = append(dst, Candidate{PageTok: -1, OffTok: -1, Addr: (line + 1) << trace.LineBits})
	}
	return dst, tier
}

// Bytes returns the in-memory (= on-disk payload) size of the table arrays.
func (t *Table) Bytes() int {
	return 8 * (len(t.main.keys) + len(t.main.slots) + len(t.markov.keys) + len(t.markov.slots))
}

// Stats summarizes table occupancy.
type Stats struct {
	Keys          int `json:"keys"`
	Buckets       int `json:"buckets"`
	MarkovKeys    int `json:"markov_keys"`
	MarkovBuckets int `json:"markov_buckets"`
	Bytes         int `json:"bytes"`
}

// Stats counts populated buckets in both subtables.
func (t *Table) Stats() Stats {
	return Stats{
		Keys:          t.main.count(),
		Buckets:       len(t.main.keys),
		MarkovKeys:    t.markov.count(),
		MarkovBuckets: len(t.markov.keys),
		Bytes:         t.Bytes(),
	}
}

// String renders the table summary.
func (t *Table) String() string {
	s := t.Stats()
	return fmt.Sprintf(
		"distilled{hist=%d topk=%d ctx=%d/%d markov=%d/%d bytes=%d}",
		t.HistLen, t.TopK, s.Keys, s.Buckets, s.MarkovKeys, s.MarkovBuckets, s.Bytes)
}

// KeyAt computes the full-context key the online predictor would observe at
// trigger position t of the bound trace (history clamped at the start,
// matching both buildBatch and History's first-access backfill).
func KeyAt(p *voyager.Predictor, t, histLen int) uint64 {
	return keyAt(p, t, histLen, make([]TokPair, 0, histLen))
}

func keyAt(p *voyager.Predictor, t, histLen int, buf []TokPair) uint64 {
	buf = buf[:0]
	for j := t - histLen + 1; j <= t; j++ {
		idx := j
		if idx < 0 {
			idx = 0
		}
		_, pg, off := p.TokensAt(idx)
		buf = append(buf, TokPair{Page: int32(pg), Off: int32(off)})
	}
	pc, _, _ := p.TokensAt(t)
	return ContextKey(pc, buf)
}

// candAgg accumulates one candidate's teacher weight under a key.
type candAgg struct {
	page, off int32
	w         float32
}

// keyAgg is the per-key teacher distribution collected during calibration.
type keyAgg struct {
	total float32
	cands []candAgg
}

func (a *keyAgg) add(page, off int32, w float32) {
	a.total += w
	for i := range a.cands {
		if a.cands[i].page == page && a.cands[i].off == off {
			a.cands[i].w += w
			return
		}
	}
	a.cands = append(a.cands, candAgg{page: page, off: off, w: w})
}

func aggFor(m map[uint64]*keyAgg, key uint64) *keyAgg {
	a := m[key]
	if a == nil {
		a = &keyAgg{}
		m[key] = a
	}
	return a
}

// compileBatch is the teacher inference batch width during calibration.
const compileBatch = 256

// Compile distills the teacher over calibration triggers [lo, hi): it runs
// batched teacher-forced inference, accumulates each trigger's top-TopK
// candidate scores under the trigger's context key (and, in parallel, under
// the trigger-pair Markov key), then freezes both aggregations into the
// static table. The build is deterministic: aggregation maps are drained in
// sorted-key order and candidate ties break on (page, offset).
func Compile(p *voyager.Predictor, lo, hi int, prm Params) *Table {
	prm = prm.withDefaults()
	if lo < 0 {
		lo = 0
	}
	if n := p.NumAccesses(); hi > n {
		hi = n
	}
	agg := make(map[uint64]*keyAgg)
	markov := make(map[uint64]*keyAgg)
	buf := make([]TokPair, 0, prm.HistLen)
	positions := make([]int, 0, compileBatch)
	flush := func() {
		if len(positions) == 0 {
			return
		}
		cands := p.PredictAt(positions, prm.TopK)
		for b, t := range positions {
			key := keyAt(p, t, prm.HistLen, buf)
			_, pg, off := p.TokensAt(t)
			trig := PairKey(pg, off)
			for _, c := range cands[b] {
				w := float32(c.Score)
				if w <= 0 {
					continue
				}
				aggFor(agg, key).add(int32(c.PageTok), int32(c.OffTok), w)
				aggFor(markov, trig).add(int32(c.PageTok), int32(c.OffTok), w)
			}
		}
		positions = positions[:0]
	}
	for t := lo; t < hi; t++ {
		positions = append(positions, t)
		if len(positions) == compileBatch {
			flush()
		}
	}
	flush()

	tab := &Table{Params: prm, VocabFP: p.Model.Vocab().Fingerprint()}
	tab.main = buildSubtable(agg, prm.Log2Buckets, prm.TopK, prm.MaxProbe)
	tab.markov = buildSubtable(markov, prm.MarkovLog2, prm.TopK, prm.MaxProbe)
	return tab
}

// buildSubtable freezes one aggregation map into an open-addressing
// subtable, inserting keys in sorted order so the build (including any
// probe-window evictions) is bit-reproducible.
func buildSubtable(agg map[uint64]*keyAgg, log2, topK, maxProbe int) *subtable {
	s := newSubtable(log2, topK, maxProbe)
	prio := make([]float32, len(s.keys))
	packed := make([]uint64, 0, topK)
	for _, key := range sortkeys.Sorted(agg) {
		a := agg[key]
		sort.Slice(a.cands, func(i, j int) bool {
			ci, cj := a.cands[i], a.cands[j]
			if ci.w != cj.w {
				return ci.w > cj.w
			}
			if ci.page != cj.page {
				return ci.page < cj.page
			}
			return ci.off < cj.off
		})
		packed = packed[:0]
		for _, c := range a.cands {
			if len(packed) == topK {
				break
			}
			packed = append(packed, packSlot(c.page, c.off, c.w/a.total))
		}
		s.insert(key, a.total, packed, prio)
	}
	return s
}

// Agreement measures top-1 (page, offset) token agreement between the
// table's fallback chain and the live teacher over the given trigger
// positions: the fraction of triggers where the table's first slot names
// the same token pair as the teacher's top candidate. Triggers where the
// teacher itself has no candidate are skipped; a table miss on a scored
// trigger counts as disagreement.
func Agreement(p *voyager.Predictor, t *Table, positions []int) float64 {
	if len(positions) == 0 {
		return 0
	}
	buf := make([]TokPair, 0, t.HistLen)
	agree, scored := 0, 0
	for lo := 0; lo < len(positions); lo += compileBatch {
		hi := lo + compileBatch
		if hi > len(positions) {
			hi = len(positions)
		}
		batch := positions[lo:hi]
		teacher := p.PredictAt(batch, 1)
		for b, pos := range batch {
			if len(teacher[b]) == 0 {
				continue
			}
			scored++
			key := keyAt(p, pos, t.HistLen, buf)
			_, pg, off := p.TokensAt(pos)
			slots, _ := t.Lookup(key, PairKey(pg, off))
			if len(slots) == 0 || slots[0] == 0 {
				continue
			}
			sp, so, _ := DecodeSlot(slots[0])
			if sp == teacher[b][0].PageTok && so == teacher[b][0].OffTok {
				agree++
			}
		}
	}
	if scored == 0 {
		return 0
	}
	return float64(agree) / float64(scored)
}
