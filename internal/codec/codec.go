// Package codec is the one bounds-checked cursor under every decoder of
// untrusted bytes in the tree: the PFSNAP section payloads
// (internal/snapshot) and the binary wire payloads (internal/flowd).
//
// A Reader walks one byte slice with a sticky error: the first failure —
// a short read, a malformed varint, a bool byte above 1, a string past its
// cap, a count the remaining bytes cannot hold, an id out of range, or a
// check the caller fails through Failf — is kept, wrapped in the caller's
// sentinel, and the cursor is left empty: every later read returns the
// zero value. A decoder reads straight through and checks the error once,
// and the first defect is the one reported. The Append functions are its
// twin, and ReadFull/Truncated map an EOF inside a record read off an
// io.Reader to the caller's truncation sentinel.
//
// The package knows no format: field order, delta-encoded lists, nil
// markers, caps and layout checks belong to each codec. The framings that
// read off a stream (the PFSNAP container, the wire frame header) keep
// their own readers and share only the EOF mapping.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Reader is a read cursor over one byte slice with a sticky error. It
// advances an offset, not the slice: a read stores no pointer, so the hot
// loops of a large decode pay no GC write barrier.
type Reader struct {
	b        []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a cursor over b whose failures wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{b: b, sentinel: sentinel}
}

// Failf records a failure unless one is already recorded, and returns the
// recorded one: the first failure wins. A failed cursor has nothing left
// to read, so every later read returns the zero value.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
	r.off = len(r.b)
	return r.err
}

// Err returns the recorded failure, nil if there is none.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of unread bytes, 0 once the cursor has failed.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done returns the recorded failure, or fails on unread trailing bytes.
func (r *Reader) Done() error {
	if n := r.Remaining(); n != 0 {
		r.Failf("%d trailing bytes", n)
	}
	return r.err
}

// short fails a read of n bytes that are not there.
func (r *Reader) short(n int) { r.Failf("need %d bytes, have %d", n, r.Remaining()) }

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.Remaining() < 1 {
		r.short(1)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.Remaining() < 4 {
		r.short(4)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.Remaining() < 8 {
		r.short(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint")
		return 0
	}
	r.off += n
	return x
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.off += n
	return x
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Failf("bool byte 0x%02x", b)
		return false
	}
	return b == 1
}

// String reads a u32 length, at most max, then that many bytes.
func (r *Reader) String(max int) string {
	n := r.U32()
	if n > uint32(max) {
		r.Failf("string length %d exceeds cap %d", n, max)
		return ""
	}
	if int(n) > r.Remaining() {
		r.short(int(n))
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Count vets a collection count n whose elements take at least size bytes
// each: they must fit in the unread bytes, so a crafted count cannot size
// an allocation beyond what was sent. It returns 0 after a failure.
func (r *Reader) Count(n uint64, size int) int {
	if rem := uint64(r.Remaining()); n > rem || n*uint64(size) > rem {
		r.Failf("count %d exceeds %d remaining bytes", n, rem)
		return 0
	}
	return int(n)
}

// ID reads an unsigned varint that must lie in [0, limit).
func (r *Reader) ID(limit int) int {
	x := r.Uvarint()
	if x >= uint64(limit) {
		r.Failf("id %d out of [0,%d)", x, limit)
		return 0
	}
	return int(x)
}

// The append side is Reader's twin: each Append function appends the field
// the same-named Reader method reads (a byte is a plain append). They
// return the extended slice, as append does, so a buffer that does not
// otherwise escape stays on the caller's stack.

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zigzag signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends 1 or 0.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a u32 length and the bytes of s.
func AppendString(dst []byte, s string) []byte {
	return append(AppendU32(dst, uint32(len(s))), s...)
}

// ReadFull reads exactly len(p) bytes off r; a stream that ends first is
// the caller's truncated sentinel (see Truncated).
func ReadFull(r io.Reader, p []byte, truncated error) error {
	_, err := io.ReadFull(r, p)
	return Truncated(err, truncated)
}

// Truncated maps an EOF met inside a record to truncated, wrapping the
// EOF; any other error (a closed connection, a reset) passes through for
// the caller to classify.
func Truncated(err, truncated error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", truncated, err)
	}
	return err
}
