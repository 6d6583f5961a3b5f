package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary byte streams through the same framing +
// decode pipeline a connection handler runs: read a length-prefixed frame
// (bounded by MaxFrame), decode the payload, repeat. The invariants:
// never panic, never allocate from a hostile length prefix, and any payload
// that decodes cleanly must re-encode to exactly the bytes that were read
// (the fixed-size request encoding is canonical).
func FuzzDecodeRequest(f *testing.F) {
	// A valid frame, plus the malformed shapes the protocol must survive:
	// truncated payloads, oversized/hostile length prefixes, garbage bytes.
	valid := EncodeRequest(nil, Request{Op: OpPredict, Flags: FlagFast, Stream: 3, PC: 0x400123, Addr: 0x7fff0040})
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back to back
	f.Add(valid[:7])                                    // truncated mid-payload
	f.Add(valid[:3])                                    // truncated mid-header
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 1<<31)
	f.Add(huge) // hostile length prefix
	zero := make([]byte, 4+RequestLen)
	f.Add(zero) // all-zero frame: bad version
	f.Add([]byte("garbage that is not a frame at all.."))

	// Trace-context (v2) shapes: a valid traced frame, a zero-id traced
	// frame (must still re-encode as v2 — HasCtx is frame identity), a
	// truncated context, a version/length mismatch each way, and a traced
	// frame at the request-size ceiling with saturated ids.
	traced := EncodeRequest(nil, Request{Op: OpPredict, Flags: FlagFast, Stream: 3,
		PC: 0x400123, Addr: 0x7fff0040, HasCtx: true, TraceID: 0xdead, SpanID: 0xbeef})
	f.Add(traced)
	f.Add(EncodeRequest(nil, Request{Op: OpPing, HasCtx: true})) // zero ids, still v2
	trunc := append([]byte{}, traced[:4+RequestLen]...)          // v2 header, context cut off
	binary.BigEndian.PutUint32(trunc, RequestLen)
	f.Add(trunc)
	mismatch := append([]byte{}, traced...) // 44-byte frame claiming v1
	mismatch[4] = Version
	f.Add(mismatch)
	short := append([]byte{}, valid...) // 28-byte frame claiming v2
	short[4] = VersionTraced
	f.Add(short)
	f.Add(EncodeRequest(nil, Request{Op: OpClose, Flags: 0xff, Stream: ^uint64(0),
		PC: ^uint64(0), Addr: ^uint64(0), HasCtx: true, TraceID: ^uint64(0), SpanID: ^uint64(0)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 64; i++ { // bounded: each iteration consumes ≥4 bytes or stops
			payload, err := ReadFrame(br, buf)
			if err != nil {
				return
			}
			buf = payload
			req, err := DecodeRequest(payload)
			if err != nil {
				continue
			}
			re := EncodeRequest(nil, req)
			if !bytes.Equal(re[4:], payload) {
				t.Fatalf("decode/encode not canonical: payload %x re-encoded %x", payload, re[4:])
			}
		}
	})
}

// FuzzDecodeResponse pins the client-side decoder to the same never-panic
// contract (a hostile server must not crash the replay tool).
func FuzzDecodeResponse(f *testing.F) {
	ok := EncodeResponse(nil, &Response{Status: StatusOK, Tier: TierFast,
		Cands: []Candidate{{PageTok: 1, OffTok: 2, ScoreBits: 3, Addr: 4}}})
	f.Add(ok[4:])
	errFrame := EncodeResponse(nil, &Response{Status: StatusError, Err: "x"})
	f.Add(errFrame[4:])
	f.Add([]byte{})
	f.Add([]byte{Version, StatusOK, 0, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		var r Response
		_ = DecodeResponse(data, &r)
	})
}
