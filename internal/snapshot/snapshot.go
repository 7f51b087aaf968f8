// Package snapshot is the persistence layer under the prepared-graph
// artifact: a versioned, checksummed, deterministic binary codec for the
// substrate families — the Bounded Diameter Decomposition (internal/bdd),
// the dual and primal distance labelings (internal/label's two views) and
// the minor-aggregation price card (internal/minoragg) — so that substrates
// built once in Õ(D²) simulated rounds can be written to disk, shipped
// between machines, and restored without charging those rounds again. A
// snapshot stores the tree; a labeling is a function of the tree and the
// graph's lengths, so its section names it and restore relabels it at
// simulation speed, under a discarded ledger (labelcodec.go).
//
// Format (all integers varint-encoded unless sized):
//
//	header   magic "PFSNAP" | u8 version | u64 fingerprint | uvarint nsec
//	section  u8 type | uvarint payloadLen | payload | u32 CRC32(payload)
//	...exactly nsec sections, then EOF (trailing bytes are an error)
//
// Section types: 1 = BDD tree (keyed by leaf limit), 2 = dual labeling,
// 3 = primal labeling (one body: length kind, leaf limit, build rounds),
// 4 = minor-aggregation prices (the measured PA unit and its build rounds;
// at most one, after the labelings).
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
// remaining bytes, labelings beyond the relabel budget). Decoding never
// panics, whatever the input — the fuzz harness holds it to that — and
// the relabelling it can be asked for is bounded by the graph, however
// many sections the input holds (labelcodec.go).
//
// Determinism: encoding the same built substrates always produces the
// same bytes. Map-shaped state is written in sorted key order, slices in
// stored order (the builders produce deterministic slices), and the
// committed golden fixtures pin the byte stability of versions 1 and 2.
package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"slices"

	"planarflow/internal/codec"
	"planarflow/internal/label"
	"planarflow/internal/planar"
)

// Version is the current format version, the one Encode writes. Decode
// reads it and version 1, whose labeling sections also carried the label
// vectors and DDGs (their leading fields are version 2's; the rest is read
// past), and rejects anything newer.
const Version = 2

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

// ---- section format ----

// Section payloads are read and written through internal/codec's cursor
// (failures wrap ErrCorrupt); varints keep small ids small and make the
// format word-size independent. What is this format's own: counts as
// uvarints of elements at least one byte each, and id lists
// delta-encoded in stored order.

// readCount reads a collection length that could fit in the remaining
// bytes (each element costs at least one).
func readCount(d *codec.Reader) int { return d.Count(d.Uvarint(), 1) }

// appendIDs writes a slice of non-negative ids delta-encoded in stored
// order (builder slices are ascending in practice, so deltas stay one
// byte; a signed delta round-trips any order exactly).
func appendIDs(dst []byte, xs []int) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(xs)))
	prev := 0
	for _, x := range xs {
		dst = codec.AppendVarint(dst, int64(x-prev))
		prev = x
	}
	return dst
}

// readIDs reads a delta-encoded id slice whose elements must land in
// [0, limit).
func readIDs(d *codec.Reader, limit int) []int {
	n := readCount(d)
	if n == 0 {
		return nil
	}
	out := slices.Grow([]int(nil), n)[:n] // sized as bdd.Build sizes what a bag keeps
	prev := int64(0)
	for i := range out {
		prev += d.Varint()
		if prev < 0 || prev >= int64(limit) {
			d.Failf("id %d out of [0,%d)", prev, limit)
			return nil
		}
		out[i] = int(prev)
	}
	return out
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

func encodePrices(p *PricesEntry) []byte {
	return codec.AppendVarint(codec.AppendVarint(nil, p.PAUnit), p.BuildRounds)
}

func decodePrices(d *codec.Reader) (*PricesEntry, error) {
	p := &PricesEntry{PAUnit: d.Varint(), BuildRounds: d.Varint()}
	if p.PAUnit < 1 || p.BuildRounds < 0 {
		return nil, d.Failf("prices section: unit %d, build rounds %d", p.PAUnit, p.BuildRounds)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
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
	hdr := append([]byte(nil), magic[:]...)
	hdr = append(hdr, Version)
	hdr = codec.AppendU64(hdr, Fingerprint(g))
	nsec := len(c.Trees) + len(c.Labels)
	if c.Prices != nil {
		nsec++
	}
	hdr = codec.AppendUvarint(hdr, uint64(nsec))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, t := range c.Trees {
		payload, err := encodeTree(&t)
		if err != nil {
			return err
		}
		if err := writeSection(w, secTree, payload); err != nil {
			return err
		}
	}
	for _, la := range c.Labels {
		if err := writeSection(w, secDual+byte(la.Labeling.View()), encodeLabeling(&la)); err != nil {
			return err
		}
	}
	if c.Prices != nil {
		return writeSection(w, secPrices, encodePrices(c.Prices))
	}
	return nil
}

func writeSection(w io.Writer, typ byte, payload []byte) error {
	hdr := codec.AppendUvarint([]byte{typ}, uint64(len(payload)))
	crc := codec.AppendU32(nil, crc32.ChecksumIEEE(payload))
	for _, b := range [][]byte{hdr, payload, crc} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a snapshot for g from r, verifying magic, version,
// fingerprint and per-section checksums, and materializes every substrate
// against g. lengths supplies the per-dart length vectors the labelings are
// computed from. Trees decode before labelings regardless of section order;
// a labeling whose tree section is absent from the same snapshot is
// ErrCorrupt (labelings always travel with the tree they decode over), and
// so are labelings that together cost more than relabelBudget, which is
// checked before the first of them is computed.
func Decode(r io.Reader, g *planar.Graph, lengths LengthsFunc) (*Contents, error) {
	return DecodeContext(context.Background(), r, g, lengths)
}

// DecodeContext is Decode under ctx: a ctx that ends while the labelings
// are computed stops them between bags and is the error.
func DecodeContext(ctx context.Context, r io.Reader, g *planar.Graph, lengths LengthsFunc) (*Contents, error) {
	var hdr [6 + 1 + 8]byte
	if err := codec.ReadFull(r, hdr[:], ErrTruncated); err != nil {
		return nil, err
	}
	if !bytes.Equal(hdr[:6], magic[:]) {
		return nil, ErrBadMagic
	}
	version := hdr[6]
	if version < 1 || version > Version {
		return nil, fmt.Errorf("%w: got %d, this build decodes 1 to %d", ErrVersion, version, Version)
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
		if err := codec.ReadFull(r, tb[:], ErrTruncated); err != nil {
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
		if err := codec.ReadFull(r, crc[:], ErrTruncated); err != nil {
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
		d := codec.NewReader(s.payload, ErrCorrupt)
		t, err := decodeTree(&d, g)
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
	var pending []labelSection
	budget := relabelBudget(g)
	for _, s := range secs {
		if s.typ == secTree {
			continue
		}
		if s.typ == secPrices {
			if c.Prices != nil {
				return nil, fmt.Errorf("%w: duplicate prices section", ErrCorrupt)
			}
			d := codec.NewReader(s.payload, ErrCorrupt)
			if c.Prices, err = decodePrices(&d); err != nil {
				return nil, err
			}
			continue
		}
		d := codec.NewReader(s.payload, ErrCorrupt)
		ls, err := decodeLabeling(&d, version, label.View(s.typ-secDual), c, pending)
		if err != nil {
			return nil, err
		}
		if budget -= ls.words; budget < 0 {
			return nil, fmt.Errorf("%w: %d labeling sections ask for more than the %d words of relabelling this graph allows",
				ErrCorrupt, len(pending)+1, relabelBudget(g))
		}
		pending = append(pending, *ls)
	}
	for i := range pending {
		la, err := pending[i].relabel(ctx, lengths)
		if err != nil {
			return nil, err
		}
		c.Labels = append(c.Labels, *la)
	}
	return c, nil
}

func readUvarint(r io.Reader) (uint64, error) {
	var x uint64
	var s uint
	var b [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if err := codec.ReadFull(r, b[:], ErrTruncated); err != nil {
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
