// Package wire is flowd's binary transport: a length-prefixed,
// CRC-checked framing protocol carried over persistent TCP or
// Unix-domain-socket connections, with out-of-order response
// multiplexing by request id. It exists to close the gap between the
// decode engine (~µs per warm query) and the HTTP/JSON serving path
// (~100µs per round trip): one connection carries many in-flight
// requests, responses return in completion order, and both directions
// coalesce writes at batch boundaries so a pipelined client pays one
// syscall for many frames.
//
// The protocol is pure transport — OpQuery carries exactly the JSON body
// of POST /v1/query (shared strict decoder), and the binary ops
// (OpQueryB/OpBatchB) carry the same request and response structs
// through internal/flowd's hand-written codec, pinned bit-identical to
// the HTTP route by the planarflow package's TestEveryRouteAgrees. Framing and encoding cost, not
// semantics, are what this package buys.
//
// Frame layout — the only one (integers little-endian, CRC32-IEEE over
// everything between header and checksum, mirroring the PFSNAP snapshot
// codec's checksum discipline):
//
//	offset size field
//	0      2    magic "PW"
//	2      1    version (2)
//	3      1    kind: request Op, or 0x80|Status for responses
//	4      8    request id (echoed verbatim in the response frame)
//	12     4    payload length n (<= MaxPayload)
//	16     25   trace block: trace-id high half (8), low half (8),
//	            parent span id (8), hop count (1); all zero = untraced
//	41     n    payload
//	41+n   4    CRC32(trace block + payload)
//
// Every frame carries the trace block; responses and untraced requests
// leave it zero. The protocol has no negotiation: any other version
// byte — the traceless version 1 included — is ErrVersion.
//
// Every decode failure is a typed sentinel (ErrBadMagic, ErrVersion,
// ErrBadKind, ErrOversize, ErrTruncated, ErrChecksum); decoding never
// panics and never allocates more than the input in hand justifies —
// the fuzz harness holds it to that, through the same parser the
// sockets read with (ReadFrame hands its bytes to DecodeFrame).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"planarflow/internal/codec"
	"planarflow/internal/obs"
)

// Version is the protocol version. Peers reject anything else: the
// protocol has no negotiation — any other version is a fleet upgrade.
const Version = 2

// HeaderLen is the fixed prefix every frame opens with, up to and
// including the payload length.
const HeaderLen = 16

// traceLen is the trace block between the fixed prefix and the payload:
// trace id hi/lo, parent span id, hop count.
const traceLen = 8 + 8 + 8 + 1

// crcLen trails every payload.
const crcLen = 4

// frameOverhead is what one frame costs on the socket beyond its
// payload.
const frameOverhead = HeaderLen + traceLen + crcLen

// MaxPayload caps one frame's payload, matching the HTTP plane's body
// cap: queries and answers are small, and a length prefix read off an
// untrusted connection must never size an unbounded allocation.
const MaxPayload = 1 << 20

var frameMagic = [2]byte{'P', 'W'}

// Op is a request frame's operation.
type Op uint8

const (
	// OpQuery carries a flowd QueryRequest JSON body (POST /v1/query).
	OpQuery Op = 1
	// OpPing is the liveness probe (GET /healthz); its payload is empty.
	OpPing Op = 3
	// OpQueryB is OpQuery with the compact binary payload codec
	// (internal/flowd's wirecodec) instead of JSON — same request, same
	// answer, a fraction of the encode/decode cost. Error responses
	// (status != OK) carry the JSON error body on every op.
	OpQueryB Op = 4
	// OpBatchB carries a flowd BatchRequest (POST /v1/batch) on the binary
	// payload codec.
	OpBatchB Op = 5
)

// Status is a response frame's outcome, the wire projection of the HTTP
// status the same request would have drawn (the mapping table lives in
// DESIGN.md and statusOf/wireStatusOf in internal/flowd).
type Status uint8

const (
	StatusOK         Status = 0
	StatusBadRequest Status = 1 // 400
	StatusNotFound   Status = 2 // 404
	StatusConflict   Status = 3 // 409
	StatusOverload   Status = 4 // 429
	StatusCanceled   Status = 5 // 499
	StatusTimeout    Status = 6 // 504
	StatusInternal   Status = 7 // 500

	maxStatus = 7
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusNotFound:
		return "not-found"
	case StatusConflict:
		return "conflict"
	case StatusOverload:
		return "overload"
	case StatusCanceled:
		return "canceled"
	case StatusTimeout:
		return "timeout"
	case StatusInternal:
		return "internal"
	}
	return fmt.Sprintf("status-%d", uint8(s))
}

// respBit marks the kind byte of response frames.
const respBit = 0x80

// Typed sentinel errors. Every frame decode failure wraps exactly one.
var (
	// ErrBadMagic reports bytes that are not a wire frame at all.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports a protocol version this build does not speak.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrBadKind reports an unknown op or status byte.
	ErrBadKind = errors.New("wire: unknown frame kind")
	// ErrOversize reports a length prefix exceeding MaxPayload.
	ErrOversize = errors.New("wire: frame payload exceeds cap")
	// ErrTruncated reports input that ends before the declared frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrChecksum reports a payload whose CRC does not match.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
)

// Frame is one decoded frame. Kind is a request Op for request frames
// and respBit|Status for response frames. Trace is the propagated trace
// context, the zero (invalid) context on an untraced frame.
type Frame struct {
	Kind    uint8
	ID      uint64
	Trace   obs.TraceContext
	Payload []byte
}

// IsResponse reports whether the frame travels server→client.
func (f *Frame) IsResponse() bool { return f.Kind&respBit != 0 }

// Op returns the request operation (meaningful when !IsResponse).
func (f *Frame) Op() Op { return Op(f.Kind) }

// Status returns the response status (meaningful when IsResponse).
func (f *Frame) Status() Status { return Status(f.Kind &^ respBit) }

// validKind accepts known request ops and known response statuses. The
// op numbers have gaps (2 and 6 are unassigned): an op keeps the number
// peers already speak.
func validKind(kind uint8) bool {
	if kind&respBit != 0 {
		return kind&^respBit <= maxStatus
	}
	switch Op(kind) {
	case OpQuery, OpPing, OpQueryB, OpBatchB:
		return true
	}
	return false
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice; tc is the zero context for responses and untraced requests.
// The length field counts only the payload; the CRC covers trace block
// plus payload. It fails only for payloads over MaxPayload.
func AppendFrame(dst []byte, kind uint8, id uint64, tc obs.TraceContext, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d > %d", ErrOversize, len(payload), MaxPayload)
	}
	var hdr [HeaderLen + traceLen]byte
	hdr[0], hdr[1] = frameMagic[0], frameMagic[1]
	hdr[2] = Version
	hdr[3] = kind
	binary.LittleEndian.PutUint64(hdr[4:12], id)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[16:24], tc.Hi)
	binary.LittleEndian.PutUint64(hdr[24:32], tc.Lo)
	binary.LittleEndian.PutUint64(hdr[32:40], tc.Parent)
	hdr[40] = tc.Hop
	start := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	// Checksummed where it landed in dst: handing hdr itself to crc32 would
	// move it to the heap, one allocation per frame.
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+HeaderLen:])), nil
}

// checkHeader validates the fixed 16-byte prefix and returns the
// declared payload length.
func checkHeader(hdr []byte) (int, error) {
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, fmt.Errorf("%w: %d (speak %d)", ErrVersion, hdr[2], Version)
	}
	if !validKind(hdr[3]) {
		return 0, fmt.Errorf("%w: 0x%02x", ErrBadKind, hdr[3])
	}
	n := binary.LittleEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: %d > %d", ErrOversize, n, MaxPayload)
	}
	return int(n), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b — it
// is a view, not a copy — so decoding allocates nothing and is bounded
// by the bytes already in hand: the declared length is checked against
// both MaxPayload and the remaining input before anything is touched.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderLen)
	}
	n, err := checkHeader(b[:HeaderLen])
	if err != nil {
		return Frame{}, 0, err
	}
	total := frameOverhead + n
	if len(b) < total {
		return Frame{}, 0, fmt.Errorf("%w: frame declares %d bytes, %d remain", ErrTruncated, total, len(b))
	}
	body := b[HeaderLen : total-crcLen] // trace block + payload
	if binary.LittleEndian.Uint32(b[total-crcLen:total]) != crc32.ChecksumIEEE(body) {
		return Frame{}, 0, ErrChecksum
	}
	return Frame{
		Kind: b[3],
		ID:   binary.LittleEndian.Uint64(b[4:12]),
		Trace: obs.TraceContext{
			Hi:     binary.LittleEndian.Uint64(body[0:8]),
			Lo:     binary.LittleEndian.Uint64(body[8:16]),
			Parent: binary.LittleEndian.Uint64(body[16:24]),
			Hop:    body[24],
		},
		Payload: body[traceLen:],
	}, total, nil
}

// ReadFrame reads one frame off a connection's buffered reader and
// decodes it with DecodeFrame. The frame's buffer is freshly allocated
// (the stream buffer is reused underneath), sized by the validated
// length prefix — never more than MaxPayload plus the fixed overhead.
// io.EOF surfaces untouched when the stream ends cleanly between frames;
// an EOF inside a frame is ErrTruncated.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	hdr, err := br.Peek(HeaderLen)
	if err != nil { // fewer than HeaderLen bytes were to be had
		if len(hdr) == 0 {
			return Frame{}, err // clean EOF between frames
		}
		return Frame{}, codec.Truncated(err, ErrTruncated)
	}
	n, err := checkHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	buf := make([]byte, frameOverhead+n)
	if err := codec.ReadFull(br, buf, ErrTruncated); err != nil {
		return Frame{}, err
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}
