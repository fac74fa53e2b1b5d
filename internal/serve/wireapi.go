package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"dart/internal/trace"
)

// This file is the exported slice of the DARTWIRE1 codec: just enough surface
// for a protocol front-end — the router tier in internal/route — to terminate
// client connections in either encoding and re-encode replies, while the
// codec internals (frame pooling, the session hot path) stay private. The
// byte-level specification is docs/PROTOCOL.md; every helper here is a thin
// veneer over the same code paths dart-serve itself runs.

// WireMagic is the DARTWIRE1 negotiation banner: a binary client opens by
// sending these bytes and the server echoes them to accept. Any other first
// byte on a fresh connection selects the line-delimited JSON protocol.
const WireMagic = wireMagic

// Exported frame kinds (see docs/PROTOCOL.md). Replies set the high bit of
// the request kind; FrameError answers any request whose frame decoded but
// whose execution failed.
const (
	FrameControl      byte = frameControl
	FrameAccess       byte = frameAccess
	FrameBatch        byte = frameBatch
	FrameError        byte = frameError
	FrameControlReply byte = frameControlReply
	FrameAccessReply  byte = frameAccessReply
	FrameBatchReply   byte = frameBatchReply
)

// FrameReader reads and CRC-checks DARTWIRE1 frames off a buffered stream.
// The returned payload aliases an internal buffer valid until the next call.
// io.EOF comes back bare only at a clean frame boundary.
type FrameReader struct {
	r wireReader
}

// NewFrameReader wraps br (positioned after the handshake banner).
func NewFrameReader(br *bufio.Reader) *FrameReader {
	return &FrameReader{r: wireReader{br: br}}
}

// Next reads one frame, returning its kind and payload.
func (f *FrameReader) Next() (byte, []byte, error) {
	return f.r.next()
}

// DecodeAccessRequest parses an access or batch request payload (the
// FrameAccess / FrameBatch hot verbs) into its tag, session id, and records,
// appending to recs. The session id aliases the payload — copy it before the
// next frame read.
func DecodeAccessRequest(kind byte, p []byte, recs []trace.Record) (tag uint64, sid []byte, out []trace.Record, err error) {
	if kind != frameAccess && kind != frameBatch {
		return 0, nil, recs, fmt.Errorf("serve: frame kind 0x%02x is not an access request", kind)
	}
	if tag, p, err = readUvarint(p); err != nil {
		return 0, nil, recs, err
	}
	n, p, err := readUvarint(p)
	if err != nil {
		return 0, nil, recs, err
	}
	if n > uint64(len(p)) {
		return 0, nil, recs, fmt.Errorf("serve: wire session id length %d exceeds payload", n)
	}
	sid, p = p[:n], p[n:]
	count := uint64(1)
	if kind == frameBatch {
		if count, p, err = readUvarint(p); err != nil {
			return 0, nil, recs, err
		}
		// Each record is at least 4 bytes, so a count beyond the payload
		// length is corruption — reject before sizing the record slice.
		if count > uint64(len(p)) {
			return 0, nil, recs, fmt.Errorf("serve: wire batch count %d exceeds payload", count)
		}
	}
	out, err = parseWireRecords(p, count, recs)
	return tag, sid, out, err
}

// AppendAccessRequest appends one complete access (single record) or batch
// request frame for sid — the client-side hot-verb encoder, exported for
// front-ends that build frames from re-validated records.
func AppendAccessRequest(buf []byte, tag uint64, sid string, recs []trace.Record) []byte {
	kind := byte(frameBatch)
	if len(recs) == 1 {
		kind = frameAccess
	}
	return appendWireRequest(buf, kind, tag, sid, recs)
}

// AppendResultsReply appends a complete access/batch reply frame carrying
// results (an access reply when batch is false and len(results) == 1). The
// first result's Seq seeds the frame's sequence field; results must be
// seq-contiguous, exactly as a backend produced them.
func AppendResultsReply(buf []byte, batch bool, tag uint64, results []AccessResult) []byte {
	start := len(buf)
	kind := byte(frameAccessReply)
	if batch {
		kind = frameBatchReply
	}
	buf = beginFrame(buf, kind)
	buf = binary.AppendUvarint(buf, tag)
	var seq uint64
	if len(results) > 0 {
		seq = results[0].Seq
	}
	buf = binary.AppendUvarint(buf, seq)
	if batch {
		buf = binary.AppendUvarint(buf, uint64(len(results)))
	}
	for i := range results {
		var fl byte
		if results[i].Hit {
			fl |= wireHit
		}
		if results[i].Late {
			fl |= wireLate
		}
		buf = append(buf, fl)
		buf = binary.AppendUvarint(buf, results[i].Version)
		buf = binary.AppendUvarint(buf, uint64(len(results[i].Prefetches)))
		for _, pb := range results[i].Prefetches {
			buf = binary.AppendUvarint(buf, pb)
		}
	}
	return finishFrame(buf, start)
}

// AppendControlReply appends a complete control-reply frame carrying the
// JSON-encoded reply b (as produced by json.Marshal of a Reply).
func AppendControlReply(buf []byte, b []byte) []byte {
	start := len(buf)
	buf = beginFrame(buf, frameControlReply)
	buf = append(buf, b...)
	return finishFrame(buf, start)
}

// AppendErrorReply appends a complete error-reply frame: the request tag (0
// when the failure is connection-level and the front-end will hang up after
// sending it) followed by the error text.
func AppendErrorReply(buf []byte, tag uint64, err error) []byte {
	return appendErrorFrame(buf, tag, err)
}
