package distill

import (
	"voyager/internal/trace"
	"voyager/internal/vocab"
)

// TokTriple is one encoded access: its (pc, page, offset) token triple.
type TokTriple struct {
	PC, Page, Off int32
}

// History is one access stream's encoded context, advanced one access at a
// time: a ring of the most recent encoded accesses, the trigger last. It is
// the online counterpart of a pre-encoded trace, and it encodes exactly as
// the trainer and KeyAt do: a stream's first access encodes against its own
// line, and it backfills the whole ring, so until the ring has filled its
// windows read the first access where the offline ones clamp an index below
// zero to access 0. The distilled replayer and each prefetchd session hold
// one; a History is not safe for concurrent use.
type History struct {
	voc     *vocab.Vocab
	ring    []TokTriple
	head    int // ring index of the trigger
	line    uint64
	started bool
}

// NewHistory returns an empty history of n accesses, encoded by voc.
// Holders keep it by value, beside the state they read with it, so an
// access chases no extra pointer.
func NewHistory(voc *vocab.Vocab, n int) History {
	return History{voc: voc, ring: make([]TokTriple, n)}
}

// Advance encodes one access and makes it the trigger, returning its PC
// token and cache line.
//
//hot:path
func (h *History) Advance(pc, addr uint64) (pcTok int, line uint64) {
	line = trace.Line(addr)
	prev := h.line
	if !h.started {
		prev = line
	}
	pTok, oTok := h.voc.EncodeAccess(prev, line)
	pcTok = h.voc.PCToken(pc)
	t := TokTriple{PC: int32(pcTok), Page: int32(pTok), Off: int32(oTok)}
	h.line = line
	if !h.started {
		for i := range h.ring {
			h.ring[i] = t
		}
		h.head, h.started = 0, true
		return pcTok, line
	}
	if h.head++; h.head == len(h.ring) {
		h.head = 0
	}
	h.ring[h.head] = t
	return pcTok, line
}

// Reset forgets the stream: the next Advance is a first access again.
func (h *History) Reset() { h.started = false }

// Line returns the trigger's cache line.
func (h *History) Line() uint64 { return h.line }

// Triples copies the last len(dst) accesses into dst, oldest first and the
// trigger last. len(dst) must not exceed the history's size.
func (h *History) Triples(dst []TokTriple) {
	j := h.oldest(len(dst))
	for i := range dst {
		dst[i] = h.ring[j]
		if j++; j == len(h.ring) {
			j = 0
		}
	}
}

// Pairs copies the (page, offset) pairs of the last len(dst) accesses into
// dst, oldest first and the trigger last: the window ContextKey hashes.
// len(dst) must not exceed the history's size.
func (h *History) Pairs(dst []TokPair) {
	j := h.oldest(len(dst))
	for i := range dst {
		dst[i] = TokPair{Page: h.ring[j].Page, Off: h.ring[j].Off}
		if j++; j == len(h.ring) {
			j = 0
		}
	}
}

// oldest returns the ring index of the n-th most recent access.
func (h *History) oldest(n int) int {
	j := h.head - n + 1
	if j < 0 {
		j += len(h.ring)
	}
	return j
}
