package serve

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeAccessRequest feeds arbitrary access (batch false) or batch
// (batch true) payloads to the exported request decoder. It must never
// panic, and every payload it accepts must survive AppendAccessRequest →
// FrameReader.Next → DecodeAccessRequest with the same tag, session id and
// records. Decoded values are compared, not bytes: non-minimal varints are
// legal input and re-encode minimally, and a one-record batch re-encodes as
// an access frame.
//
// Tier-1 replays the committed corpus in testdata/fuzz/FuzzDecodeAccessRequest;
// `make fuzz` and the nightly job run timed rounds on top.
func FuzzDecodeAccessRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, batch bool, p []byte) {
		kind := FrameAccess
		if batch {
			kind = FrameBatch
		}
		tag, sid, recs, err := DecodeAccessRequest(kind, p, nil)
		if err != nil {
			return
		}
		frame := AppendAccessRequest(nil, tag, string(sid), recs)
		kind2, payload, err := NewFrameReader(bufio.NewReader(bytes.NewReader(frame))).Next()
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		tag2, sid2, recs2, err := DecodeAccessRequest(kind2, payload, nil)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if tag2 != tag || !bytes.Equal(sid2, sid) || len(recs2) != len(recs) {
			t.Fatalf("round trip: tag %d sid %q %d records, want tag %d sid %q %d records",
				tag2, sid2, len(recs2), tag, sid, len(recs))
		}
		for i := range recs {
			if recs2[i] != recs[i] {
				t.Fatalf("record %d round-tripped as %+v, want %+v", i, recs2[i], recs[i])
			}
		}
	})
}
