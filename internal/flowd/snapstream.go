package flowd

// The snapshot-stream codec: the framing that carries one graph's PFSNAP
// snapshot between replicas, as the body of GET /v1/snapshot/{graph} —
// its only carrier. The PFSNAP blob inside has its own
// fingerprint/version/checksum envelope (internal/snapshot), so this
// layer is pure transport integrity: it exists to make a truncated
// or bit-flipped transfer *detectable at the stream level*, before the
// receiver spends decode work, and to carry the graph id so a fetcher
// can confirm it got the snapshot it asked for.
//
// Stream layout (integers little-endian, CRC32-IEEE, mirroring the wire
// frame and PFSNAP disciplines):
//
//	offset size field
//	0      2    magic "PS"
//	2      1    version (1)
//	3      1    reserved (0)
//	4      2    graph-id length (1..store.MaxIDLen, the registration bound)
//	6      n    graph id
//	then data chunks, each:
//	       4    chunk length (1..snapMaxChunk)
//	       k    chunk bytes
//	       4    CRC32(chunk bytes)
//	terminator:
//	       4    zero length
//	       4    CRC32(entire data)
//
// A transfer cut anywhere mid-stream is ErrSnapStreamTruncated — the
// zero-length terminator chunk is the only clean end — so a peer fetch
// interrupted by the sender dying can never be mistaken for a complete
// snapshot. Decoding never panics and allocates no more than the
// declared (capped) sizes; the fuzz harness holds it to that.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"planarflow/internal/codec"
	"planarflow/internal/store"
)

// SnapStreamVersion is the stream framing version (independent of the
// PFSNAP codec version inside).
const SnapStreamVersion = 1

// snapMaxChunk caps one chunk's declared length: a length prefix read
// off an untrusted stream must never size an unbounded allocation.
const snapMaxChunk = 256 << 10

// DefaultMaxSnapBytes is the decoder's default budget for one
// reassembled snapshot (serving-sized graphs are a few MB; this is
// generous headroom, not a tuning knob).
const DefaultMaxSnapBytes = 256 << 20

// snapStreamMagic opens every snapshot stream.
var snapStreamMagic = [2]byte{'P', 'S'}

// Typed sentinel errors of the stream decoder.
var (
	// ErrSnapStream reports a malformed stream: bad magic, an unsupported
	// version, an out-of-range id or chunk length, or a checksum mismatch.
	ErrSnapStream = errors.New("flowd: bad snapshot stream")
	// ErrSnapStreamTruncated reports a stream that ends before its
	// terminator chunk — the signature of a transfer cut mid-flight. A
	// peer fetch seeing this must fall back (disk, then rebuild), never
	// install.
	ErrSnapStreamTruncated = errors.New("flowd: snapshot stream truncated")
	// ErrSnapStreamSize reports a stream whose data exceeds the caller's
	// byte budget.
	ErrSnapStreamSize = errors.New("flowd: snapshot stream exceeds size cap")
)

// EncodeSnapStream frames one graph's snapshot bytes onto w.
func EncodeSnapStream(w io.Writer, graph string, data []byte) error {
	if len(graph) == 0 || len(graph) > store.MaxIDLen {
		return fmt.Errorf("%w: graph id length %d", ErrSnapStream, len(graph))
	}
	hdr := make([]byte, 0, 6+len(graph))
	hdr = append(hdr, snapStreamMagic[0], snapStreamMagic[1], SnapStreamVersion, 0)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(graph)))
	hdr = append(hdr, graph...)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var lenbuf [4]byte
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > snapMaxChunk {
			n = snapMaxChunk
		}
		chunk := data[off : off+n]
		binary.LittleEndian.PutUint32(lenbuf[:], uint32(n))
		if _, err := w.Write(lenbuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(lenbuf[:], crc32.ChecksumIEEE(chunk))
		if _, err := w.Write(lenbuf[:]); err != nil {
			return err
		}
		off += n
	}
	var term [8]byte // zero length + whole-stream CRC
	binary.LittleEndian.PutUint32(term[4:], crc32.ChecksumIEEE(data))
	_, err := w.Write(term[:])
	return err
}

// DecodeSnapStream reads one framed snapshot off r: the graph id it
// carries and the reassembled snapshot bytes. maxBytes caps the total
// data size (<= 0 means DefaultMaxSnapBytes); every failure wraps one
// of the typed sentinels above, with mid-stream EOF always
// ErrSnapStreamTruncated.
func DecodeSnapStream(r io.Reader, maxBytes int64) (string, []byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxSnapBytes
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var hdr [6]byte
	if err := codec.ReadFull(br, hdr[:], ErrSnapStreamTruncated); err != nil {
		return "", nil, err
	}
	if hdr[0] != snapStreamMagic[0] || hdr[1] != snapStreamMagic[1] {
		return "", nil, fmt.Errorf("%w: bad magic", ErrSnapStream)
	}
	if hdr[2] != SnapStreamVersion {
		return "", nil, fmt.Errorf("%w: version %d (speak %d)", ErrSnapStream, hdr[2], SnapStreamVersion)
	}
	idLen := int(binary.LittleEndian.Uint16(hdr[4:6]))
	if idLen == 0 || idLen > store.MaxIDLen {
		return "", nil, fmt.Errorf("%w: graph id length %d", ErrSnapStream, idLen)
	}
	id := make([]byte, idLen)
	if err := codec.ReadFull(br, id, ErrSnapStreamTruncated); err != nil {
		return "", nil, err
	}
	var data []byte
	var lenbuf [4]byte
	for {
		if err := codec.ReadFull(br, lenbuf[:], ErrSnapStreamTruncated); err != nil {
			return "", nil, err
		}
		n := binary.LittleEndian.Uint32(lenbuf[:])
		if n == 0 { // terminator: whole-stream checksum follows
			if err := codec.ReadFull(br, lenbuf[:], ErrSnapStreamTruncated); err != nil {
				return "", nil, err
			}
			if binary.LittleEndian.Uint32(lenbuf[:]) != crc32.ChecksumIEEE(data) {
				return "", nil, fmt.Errorf("%w: stream checksum mismatch", ErrSnapStream)
			}
			return string(id), data, nil
		}
		if n > snapMaxChunk {
			return "", nil, fmt.Errorf("%w: chunk length %d > %d", ErrSnapStream, n, snapMaxChunk)
		}
		if int64(len(data))+int64(n) > maxBytes {
			return "", nil, fmt.Errorf("%w: %d bytes > %d", ErrSnapStreamSize, int64(len(data))+int64(n), maxBytes)
		}
		off := len(data)
		data = append(data, make([]byte, n)...)
		if err := codec.ReadFull(br, data[off:], ErrSnapStreamTruncated); err != nil {
			return "", nil, err
		}
		if err := codec.ReadFull(br, lenbuf[:], ErrSnapStreamTruncated); err != nil {
			return "", nil, err
		}
		if binary.LittleEndian.Uint32(lenbuf[:]) != crc32.ChecksumIEEE(data[off:]) {
			return "", nil, fmt.Errorf("%w: chunk checksum mismatch", ErrSnapStream)
		}
	}
}
