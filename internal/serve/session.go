// Per-stream session state. A session is the serving-side replacement for
// the trainer's pre-encoded trace: a distill.History, the ring of encoded
// (pc, page, offset) triples the distilled replayer also holds, advanced
// one access at a time. One ring of max(SeqLen, HistLen) triples serves
// both tiers: the model tier snapshots its last SeqLen triples, the fast
// tier its last HistLen (page, offset) pairs. History owns the encoding
// (a stream's first access encodes against its own line and backfills the
// ring, the clamp buildBatch and KeyAt apply at a trace start), which is
// what makes the serving path bit-comparable to the offline ones.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve/quality"
	"voyager/internal/sortkeys"
	"voyager/internal/vocab"
)

// session holds one stream's context. history is guarded by mu; lastUsed and
// gone are read and written by the janitor without taking the session lock.
type session struct {
	mu      sync.Mutex
	history distill.History

	// lastUsed is nanoseconds on a monotonic-ish clock (time.Now().
	// UnixNano()), written on every request and read by the janitor.
	lastUsed atomic.Int64
	// gone is set when the table drops the session (idle eviction or
	// OpClose); a handler holding a cached pointer re-fetches on next use.
	gone atomic.Bool

	// qs is the stream's quality-scoring state (nil when quality telemetry
	// is off). Set once at creation, closed when the table drops the
	// session so pending predictions settle as unresolved.
	qs *quality.Session
}

// sessionTable maps stream ids to sessions. get/remove are O(1) map
// operations; evictIdle iterates in sorted-key order (deterministic scans,
// per the maporder analyzer).
type sessionTable struct {
	mu      sync.Mutex
	m       map[uint64]*session
	voc     *vocab.Vocab
	ringCap int
	quality *quality.Tracker

	active  *metrics.Gauge
	evicted *metrics.Counter
}

func newSessionTable(voc *vocab.Vocab, ringCap int, reg *metrics.Registry, q *quality.Tracker) *sessionTable {
	return &sessionTable{
		m:       make(map[uint64]*session),
		voc:     voc,
		ringCap: ringCap,
		quality: q,
		active:  reg.Gauge("serve_sessions_active"),
		evicted: reg.Counter("serve_sessions_evicted_total"),
	}
}

// get returns the stream's session, creating it on first use.
func (t *sessionTable) get(id uint64) *session {
	t.mu.Lock()
	st := t.m[id]
	if st == nil {
		st = &session{history: distill.NewHistory(t.voc, t.ringCap), qs: t.quality.NewSession()}
		st.lastUsed.Store(time.Now().UnixNano())
		t.m[id] = st
		t.active.Set(float64(len(t.m)))
	}
	t.mu.Unlock()
	return st
}

// remove drops the stream's session (OpClose).
func (t *sessionTable) remove(id uint64) {
	t.mu.Lock()
	if st := t.m[id]; st != nil {
		st.gone.Store(true)
		st.qs.Close()
		delete(t.m, id)
		t.active.Set(float64(len(t.m)))
	}
	t.mu.Unlock()
}

// len returns the number of live sessions.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// evictIdle drops sessions idle for longer than d and returns how many.
func (t *sessionTable) evictIdle(d time.Duration) int {
	cutoff := time.Now().Add(-d).UnixNano()
	n := 0
	t.mu.Lock()
	for _, id := range sortkeys.Sorted(t.m) {
		st := t.m[id]
		if st.lastUsed.Load() < cutoff {
			st.gone.Store(true)
			st.qs.Close()
			delete(t.m, id)
			n++
		}
	}
	if n > 0 {
		t.active.Set(float64(len(t.m)))
		t.evicted.Add(uint64(n))
	}
	t.mu.Unlock()
	return n
}
