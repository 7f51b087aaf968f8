// Package snapshot is the persistence layer under the prepared-graph
// artifact: a versioned, checksummed, deterministic binary codec for the
// substrate families — the Bounded Diameter Decomposition (internal/bdd),
// the dual and primal distance labelings (internal/label's two views) and
// the minor-aggregation price card (internal/minoragg) — so that substrates
// built once in Õ(D²) simulated rounds can be written to disk, shipped
// between machines, and restored at decode speed instead of rebuilt.
//
// Format (all integers varint-encoded unless sized):
//
//	header   magic "PFSNAP" | u8 version | u64 fingerprint | uvarint nsec
//	section  u8 type | uvarint payloadLen | payload | u32 CRC32(payload)
//	...exactly nsec sections, then EOF (trailing bytes are an error)
//
// Section types: 1 = BDD tree (keyed by leaf limit), 2 = dual labeling,
// 3 = primal labeling (one body, keyed by length kind + leaf limit; type 2
// appends the DDGs its view retains), 4 = minor-aggregation prices (the
// measured PA unit and its build rounds; at most one, after the labelings).
// The fingerprint binds a snapshot to
// the exact embedded graph it was encoded against (vertices, edges with
// weights/capacities, rotation system);
// substrates are positional into the graph's dart/face/vertex spaces, so
// restoring against any other graph would silently corrupt answers — the
// fingerprint check turns that into ErrFingerprint.
//
// Every failure mode is a typed sentinel: ErrBadMagic / ErrVersion for
// foreign or future files, ErrFingerprint for the wrong graph,
// ErrChecksum for bit rot, ErrTruncated for short reads, ErrCorrupt for
// structurally invalid payloads (ids out of range, counts exceeding the
// remaining bytes). Decoding never panics, whatever the input — the fuzz
// harness holds it to that.
//
// Determinism: encoding the same built substrates always produces the
// same bytes. Map-shaped state is written in sorted key order, slices in
// stored order (the builders produce deterministic slices), and the
// committed golden fixtures pin the byte stability of version 1.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

	"planarflow/internal/label"
	"planarflow/internal/planar"
)

// Version is the current format version. Decoders reject anything newer;
// older versions are decodable for as long as their section codecs are
// kept (version 1 is the first).
const Version = 1

var magic = [6]byte{'P', 'F', 'S', 'N', 'A', 'P'}

// Typed sentinel errors. Decode failures wrap exactly one of these.
var (
	// ErrBadMagic reports input that is not a planarflow snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion reports a format version this build cannot decode.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrFingerprint reports a snapshot encoded against a different graph.
	ErrFingerprint = errors.New("snapshot: graph fingerprint mismatch")
	// ErrChecksum reports a section whose CRC does not match its payload.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrTruncated reports input that ends before the declared structure.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrCorrupt reports a structurally invalid payload (out-of-range ids,
	// impossible counts, trailing garbage).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// Section type tags. A labeling section's type is secDual + its
// label.View (Dual = 0, Primal = 1).
const (
	secTree    = 1
	secDual    = 2
	secPrimal  = 3
	secPrices  = 4
	maxSecType = secPrices
)

// Fingerprint hashes everything that determines a substrate's meaning:
// vertex count, the edge list with weights and capacities, and the
// rotation system (the embedding). Two graphs with equal fingerprints are
// byte-identical inputs to every builder, so substrates transfer exactly.
func Fingerprint(g *planar.Graph) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	wi := func(x int64) {
		n := binary.PutVarint(buf[:], x)
		h.Write(buf[:n])
	}
	wi(int64(g.N()))
	wi(int64(g.M()))
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		wi(int64(ed.U))
		wi(int64(ed.V))
		wi(ed.Weight)
		wi(ed.Cap)
	}
	for v := 0; v < g.N(); v++ {
		rot := g.Rotation(v)
		wi(int64(len(rot)))
		for _, d := range rot {
			wi(int64(d))
		}
	}
	return h.Sum64()
}

// ---- encoder ----

// enc accumulates one section payload; varints keep small ids small and
// make the format word-size independent.
type enc struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *enc) uvarint(x uint64) {
	n := binary.PutUvarint(e.tmp[:], x)
	e.buf.Write(e.tmp[:n])
}

func (e *enc) varint(x int64) {
	n := binary.PutVarint(e.tmp[:], x)
	e.buf.Write(e.tmp[:n])
}

func (e *enc) count(n int) { e.uvarint(uint64(n)) }
func (e *enc) id(x int)    { e.uvarint(uint64(x)) }
func (e *enc) bool(b bool) {
	if b {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}
func (e *enc) byte(b byte)     { e.buf.WriteByte(b) }
func (e *enc) float(f float64) { e.uvarint(math.Float64bits(f)) }

// ints writes a slice of non-negative ids delta-encoded in stored order
// (builder slices are ascending in practice, so deltas stay one byte; a
// signed delta round-trips any order exactly).
func (e *enc) ints(xs []int) {
	e.count(len(xs))
	prev := 0
	for _, x := range xs {
		e.varint(int64(x - prev))
		prev = x
	}
}

// ---- decoder ----

// dec reads one CRC-verified section payload. Every read checks bounds;
// count reads are capped by the remaining payload length so crafted
// counts cannot force large allocations.
type dec struct {
	b   []byte
	off int
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	d.off += n
	return x, nil
}

func (d *dec) varint() (int64, error) {
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	d.off += n
	return x, nil
}

// count reads a collection length and rejects counts that could not
// possibly fit in the remaining bytes (each element costs >= 1 byte).
func (d *dec) count() (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, x, d.remaining())
	}
	return int(x), nil
}

// id reads a non-negative integer bounded by limit (exclusive).
func (d *dec) id(limit int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x >= uint64(limit) {
		return 0, fmt.Errorf("%w: id %d out of [0,%d)", ErrCorrupt, x, limit)
	}
	return int(x), nil
}

func (d *dec) bool() (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: bad bool %d", ErrCorrupt, b)
	}
	return b == 1, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.b) {
		return 0, fmt.Errorf("%w: payload ends early", ErrCorrupt)
	}
	b := d.b[d.off]
	d.off++
	return b, nil
}

func (d *dec) float() (float64, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(x), nil
}

// ints reads a delta-encoded id slice whose elements must land in
// [0, limit).
func (d *dec) ints(limit int) ([]int, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	prev := int64(0)
	for i := range out {
		dx, err := d.varint()
		if err != nil {
			return nil, err
		}
		prev += dx
		if prev < 0 || prev >= int64(limit) {
			return nil, fmt.Errorf("%w: id %d out of [0,%d)", ErrCorrupt, prev, limit)
		}
		out[i] = int(prev)
	}
	return out, nil
}

// ---- container ----

// Contents is the decoded (or to-be-encoded) substrate set of one graph.
// Keys follow the artifact layer: a tree by its leaf limit, a labeling by
// (length kind, leaf limit); Kind bytes are the artifact.LengthKind
// values, kept as raw bytes here so this package stays below the artifact
// layer. BuildRounds preserves each substrate's original construction
// cost so serving stats survive a restore.
type Contents struct {
	Trees  []TreeEntry
	Labels []LabelEntry
	Prices *PricesEntry // nil: the snapshot holds no prices
}

// PricesEntry is the persisted minor-aggregation price card: the CONGEST
// cost of one PA instance measured on the graph's Ĝ, and what measuring it
// cost in simulated rounds. Everything else a query reads of the simulator
// (log n) derives from the fingerprint-checked graph.
type PricesEntry struct {
	PAUnit      int64
	BuildRounds int64
}

func encodePrices(e *enc, p *PricesEntry) {
	e.varint(p.PAUnit)
	e.varint(p.BuildRounds)
}

func decodePrices(d *dec) (*PricesEntry, error) {
	paUnit, err := d.varint()
	if err != nil {
		return nil, err
	}
	buildRounds, err := d.varint()
	if err != nil {
		return nil, err
	}
	if paUnit < 1 || buildRounds < 0 {
		return nil, fmt.Errorf("%w: prices section: unit %d, build rounds %d", ErrCorrupt, paUnit, buildRounds)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in prices section", ErrCorrupt, d.remaining())
	}
	return &PricesEntry{PAUnit: paUnit, BuildRounds: buildRounds}, nil
}

// LengthsFunc materializes the per-dart length vector of a length kind —
// supplied by the caller (the artifact layer) at decode time, since
// lengths derive deterministically from the fingerprint-checked graph and
// are never stored.
type LengthsFunc func(kind byte) ([]int64, error)

// Encode writes the snapshot of g's substrates to w: header, then one
// section per substrate in deterministic order (trees by leaf limit, then
// labelings by (view, kind, leaf limit) — the caller sorts — then the
// prices, if any).
func Encode(w io.Writer, g *planar.Graph, c *Contents) error {
	var hdr enc
	hdr.buf.Write(magic[:])
	hdr.byte(Version)
	var fp [8]byte
	binary.LittleEndian.PutUint64(fp[:], Fingerprint(g))
	hdr.buf.Write(fp[:])
	nsec := len(c.Trees) + len(c.Labels)
	if c.Prices != nil {
		nsec++
	}
	hdr.count(nsec)
	if _, err := w.Write(hdr.buf.Bytes()); err != nil {
		return err
	}
	for _, t := range c.Trees {
		var e enc
		if err := encodeTree(&e, g, &t); err != nil {
			return err
		}
		if err := writeSection(w, secTree, e.buf.Bytes()); err != nil {
			return err
		}
	}
	for _, la := range c.Labels {
		var e enc
		if err := encodeLabeling(&e, &la); err != nil {
			return err
		}
		if err := writeSection(w, secDual+byte(la.Labeling.View()), e.buf.Bytes()); err != nil {
			return err
		}
	}
	if c.Prices != nil {
		var e enc
		encodePrices(&e, c.Prices)
		return writeSection(w, secPrices, e.buf.Bytes())
	}
	return nil
}

func writeSection(w io.Writer, typ byte, payload []byte) error {
	var hdr enc
	hdr.byte(typ)
	hdr.uvarint(uint64(len(payload)))
	if _, err := w.Write(hdr.buf.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// Decode reads a snapshot for g from r, verifying magic, version,
// fingerprint and per-section checksums, and materializes every substrate
// against g. lengths supplies the per-dart length vectors of the labeling
// sections. Trees decode before labelings regardless of section order; a
// labeling whose tree section is absent from the same snapshot is
// ErrCorrupt (labelings always travel with the tree they decode over).
func Decode(r io.Reader, g *planar.Graph, lengths LengthsFunc) (*Contents, error) {
	var hdr [6 + 1 + 8]byte
	if err := readFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(hdr[:6], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := hdr[6]; v != Version {
		return nil, fmt.Errorf("%w: got %d, this build decodes %d", ErrVersion, v, Version)
	}
	if fp := binary.LittleEndian.Uint64(hdr[7:]); fp != Fingerprint(g) {
		return nil, fmt.Errorf("%w: snapshot %016x, graph %016x", ErrFingerprint, fp, Fingerprint(g))
	}
	nsec, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	// A substrate section costs >= 8 bytes on the wire; an nsec beyond any
	// plausible substrate family count is a crafted header.
	if nsec > 1<<20 {
		return nil, fmt.Errorf("%w: %d sections", ErrCorrupt, nsec)
	}

	type rawSec struct {
		typ     byte
		payload []byte
	}
	secs := make([]rawSec, 0, min(int(nsec), 64))
	for i := uint64(0); i < nsec; i++ {
		var tb [1]byte
		if err := readFull(r, tb[:]); err != nil {
			return nil, err
		}
		if tb[0] < secTree || tb[0] > maxSecType {
			return nil, fmt.Errorf("%w: unknown section type %d", ErrCorrupt, tb[0])
		}
		plen, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		// Grow with the bytes that actually arrive, so a crafted length on
		// a truncated file fails as ErrTruncated without a giant allocation.
		var pb bytes.Buffer
		if n, err := io.CopyN(&pb, r, int64(plen)); err != nil {
			return nil, fmt.Errorf("%w: section payload %d/%d bytes", ErrTruncated, n, plen)
		}
		var crc [4]byte
		if err := readFull(r, crc[:]); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(pb.Bytes()) {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, i)
		}
		secs = append(secs, rawSec{typ: tb[0], payload: pb.Bytes()})
	}
	// Exactly nsec sections, then EOF.
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after %d sections", ErrCorrupt, nsec)
	}

	c := &Contents{}
	for _, s := range secs {
		if s.typ != secTree {
			continue
		}
		t, err := decodeTree(&dec{b: s.payload}, g)
		if err != nil {
			return nil, err
		}
		for _, prev := range c.Trees {
			if prev.LeafLimit == t.LeafLimit {
				return nil, fmt.Errorf("%w: duplicate tree section (leaf limit %d)", ErrCorrupt, t.LeafLimit)
			}
		}
		c.Trees = append(c.Trees, *t)
	}
	for _, s := range secs {
		if s.typ == secTree {
			continue
		}
		if s.typ == secPrices {
			if c.Prices != nil {
				return nil, fmt.Errorf("%w: duplicate prices section", ErrCorrupt)
			}
			if c.Prices, err = decodePrices(&dec{b: s.payload}); err != nil {
				return nil, err
			}
			continue
		}
		la, err := decodeLabeling(&dec{b: s.payload}, label.View(s.typ-secDual), g, c, lengths)
		if err != nil {
			return nil, err
		}
		c.Labels = append(c.Labels, *la)
	}
	return c, nil
}

func readFull(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: need %d bytes", ErrTruncated, len(p))
		}
		return err
	}
	return nil
}

func readUvarint(r io.Reader) (uint64, error) {
	var x uint64
	var s uint
	var b [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if err := readFull(r, b[:]); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[0] > 1 {
				return 0, fmt.Errorf("%w: uvarint overflow", ErrCorrupt)
			}
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflow", ErrCorrupt)
}
