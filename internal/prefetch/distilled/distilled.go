// Package distilled replays a tabularized Voyager (internal/distill)
// online: each access advances a distill.History, and Table.Decide hashes
// its window and probes the distilled table — no neural forward pass, so a
// prediction costs a few hash folds and at most 2·MaxProbe array reads
// (hundreds of nanoseconds instead of a full LSTM inference).
package distilled

import (
	"fmt"

	"voyager/internal/distill"
	"voyager/internal/trace"
	"voyager/internal/vocab"
)

// Prefetcher binds a distilled table to a vocabulary and replays it over an
// access stream behind the standard prefetch.Prefetcher interface.
type Prefetcher struct {
	tab    *distill.Table
	voc    *vocab.Vocab
	degree int

	history distill.History
	pairs   []distill.TokPair   // the HistLen context window, copied out of history
	cands   []distill.Candidate // Decide's scratch; callers get fresh copies

	tiers [distill.NumTiers]int
}

// New binds a table to the vocabulary of the trace it will replay. The
// vocabulary must be the one the table was compiled against (checked via
// the embedded fingerprint — token ids are meaningless across
// vocabularies).
func New(tab *distill.Table, voc *vocab.Vocab, degree int) (*Prefetcher, error) {
	if got, want := voc.Fingerprint(), tab.VocabFP; got != want {
		return nil, fmt.Errorf(
			"distilled: table compiled against a different vocabulary (fingerprint %#x, trace's %#x): recompile the table or replay the original trace",
			want, got)
	}
	if degree < 1 {
		degree = 1
	}
	return &Prefetcher{
		tab:     tab,
		voc:     voc,
		degree:  degree,
		history: distill.NewHistory(voc, tab.HistLen),
		pairs:   make([]distill.TokPair, tab.HistLen),
		cands:   make([]distill.Candidate, 0, degree),
	}, nil
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "distilled" }

// Reset clears the context window (tier counters persist) so the
// prefetcher can replay another pass over the same trace.
func (p *Prefetcher) Reset() { p.history.Reset() }

// TierCounts returns how many accesses were answered by each fallback
// tier (indexed by distill.Tier) since construction.
func (p *Prefetcher) TierCounts() [distill.NumTiers]int { return p.tiers }

// Access implements prefetch.Prefetcher: advance the context window and
// let the table decide (Table.Decide), which degrades to next-line on a
// full table miss.
func (p *Prefetcher) Access(_ int, a trace.Access) []uint64 {
	pcTok, line := p.history.Advance(a.PC, a.Addr)
	p.history.Pairs(p.pairs)
	var tier distill.Tier
	p.cands, tier = p.tab.Decide(p.voc, pcTok, p.pairs, line, p.degree, p.cands[:0])
	p.tiers[tier]++
	if len(p.cands) == 0 {
		return nil
	}
	// The simulator and eval pipeline retain returned slices; hand out a
	// fresh copy and keep the scratch for the next access.
	res := make([]uint64, len(p.cands))
	for i, c := range p.cands {
		res[i] = c.Addr
	}
	return res
}
