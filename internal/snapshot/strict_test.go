package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/codec"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// splitSnapshot cuts a snapshot into its header (through the section count)
// and its section payloads with their type bytes.
func splitSnapshot(t testing.TB, data []byte) (hdr []byte, types []byte, payloads [][]byte) {
	t.Helper()
	off := 6 + 1 + 8
	nsec, n := binary.Uvarint(data[off:])
	off += n
	hdr = data[:off]
	for i := uint64(0); i < nsec; i++ {
		typ := data[off]
		plen, n := binary.Uvarint(data[off+1:])
		off += 1 + n
		types = append(types, typ)
		payloads = append(payloads, data[off:off+int(plen)])
		off += int(plen) + 4
	}
	if off != len(data) {
		t.Fatalf("snapshot has %d bytes after its sections", len(data)-off)
	}
	return hdr, types, payloads
}

// joinSnapshot is splitSnapshot's inverse, with fresh lengths and CRCs.
func joinSnapshot(hdr []byte, types []byte, payloads [][]byte) []byte {
	out := append([]byte(nil), hdr...)
	for i, p := range payloads {
		out = append(out, types[i])
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	return out
}

// labelAt locates one label inside a labeling section payload: the offsets
// of its key, its flags byte, and per vector the count and every key delta
// and value. Labels and vector entries are stored by ascending key, so the
// last of either is its bag's or vector's largest.
type labelAt struct {
	leaf, last bool // by its flag; the last label of its bag
	key, flags int
	vec        [2]struct {
		count          int
		deltas, values []int
	}
}

// walkLabeling indexes a labeling section payload: every label in stream
// order, and the offset of the first DDG node's key.
func walkLabeling(t testing.TB, payload []byte) (labels []labelAt, ddgNodeKey int) {
	t.Helper()
	d := codec.NewReader(payload, ErrCorrupt)
	off := func() int { return len(payload) - d.Remaining() }
	skip := func(n int) {
		for ; n > 0; n-- {
			d.Uvarint() // a varint spans the same bytes
		}
	}
	defer func() {
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
	}()
	d.U8()
	skip(2)
	d.Bool()
	nb := readCount(&d)
	for bag := 0; bag < nb; bag++ {
		if !d.Bool() {
			continue
		}
		n := readCount(&d)
		for j := 0; j < n; j++ {
			var at labelAt
			at.key = off()
			skip(1)
			at.flags = off()
			flags := d.U8()
			at.leaf, at.last = flags&flagLeaf != 0, j == n-1
			if flags&flagChild != 0 {
				skip(1)
			}
			for v := range at.vec {
				at.vec[v].count = off()
				c := readCount(&d)
				for e := 0; e < c; e++ {
					at.vec[v].deltas = append(at.vec[v].deltas, off())
					skip(1)
					at.vec[v].values = append(at.vec[v].values, off())
					skip(1)
				}
			}
			labels = append(labels, at)
		}
	}
	for bag := 0; bag < nb; bag++ {
		if d.Bool() {
			skip(1) // node count
			d.U8()
			return labels, off()
		}
	}
	return labels, -1
}

// setVarint replaces the varint at off (signed selects zigzag) by x.
func setVarint(payload []byte, off int, signed bool, x int64) []byte {
	_, n := binary.Uvarint(payload[off:])
	out := append([]byte(nil), payload[:off]...)
	if signed {
		out = binary.AppendVarint(out, x)
	} else {
		out = binary.AppendUvarint(out, uint64(x))
	}
	return append(out, payload[off+n:]...)
}

func varintAt(payload []byte, off int) int64 {
	x, _ := binary.Varint(payload[off:])
	return x
}

func uvarintAt(payload []byte, off int) int64 {
	x, _ := binary.Uvarint(payload[off:])
	return int64(x)
}

// strictCases are the label-section inputs a vector cannot represent, each
// one edit of a dual labeling section of tri40-leaf8-v1.pfsnap (CRC
// refreshed, so only the section decoder can object). first picks the label
// the edit lands on.
var strictCases = []struct {
	name  string
	first func(l *labelAt) bool
	edit  func(p []byte, l *labelAt) []byte
}{
	{"strict-vector-count", func(l *labelAt) bool { return !l.leaf && len(l.vec[0].deltas) > 1 },
		func(p []byte, l *labelAt) []byte {
			return setVarint(p, l.vec[0].count, false, uvarintAt(p, l.vec[0].count)-1)
		}},
	{"strict-vector-duplicate-key", func(l *labelAt) bool { return !l.leaf && len(l.vec[1].deltas) > 1 },
		func(p []byte, l *labelAt) []byte { return setVarint(p, l.vec[1].deltas[1], true, 0) }},
	{"strict-vector-descending", func(l *labelAt) bool { return l.leaf && len(l.vec[0].deltas) > 2 },
		func(p []byte, l *labelAt) []byte { return setVarint(p, l.vec[0].deltas[2], true, -1) }},
	{"strict-vector-key-outside", func(l *labelAt) bool { return !l.leaf && len(l.vec[0].deltas) > 0 },
		func(p []byte, l *labelAt) []byte {
			last := l.vec[0].deltas[len(l.vec[0].deltas)-1]
			return setVarint(p, last, true, varintAt(p, last)+1)
		}},
	{"strict-leaf-flag-in-internal-bag", func(l *labelAt) bool { return !l.leaf },
		func(p []byte, l *labelAt) []byte {
			out := append([]byte(nil), p...)
			out[l.flags] |= flagLeaf
			out[l.flags] &^= flagChild
			return out
		}},
	{"strict-internal-flag-in-leaf-bag", func(l *labelAt) bool { return l.leaf },
		func(p []byte, l *labelAt) []byte {
			out := append([]byte(nil), p...)
			out[l.flags] = 0
			return out
		}},
	{"strict-label-key-not-in-bag", func(l *labelAt) bool { return l.leaf && l.last },
		func(p []byte, l *labelAt) []byte { return setVarint(p, l.key, false, uvarintAt(p, l.key)+1) }},
	{"strict-leaffrom-not-the-column", func(l *labelAt) bool { return l.leaf && len(l.vec[1].values) > 1 },
		func(p []byte, l *labelAt) []byte {
			return setVarint(p, l.vec[1].values[1], true, varintAt(p, l.vec[1].values[1])+1)
		}},
}

// strictInputs builds every strict case, plus a DDG whose node list is not
// the tree's, from the tri40 fixture.
func strictInputs(t testing.TB) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenFixtures[1].path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, types, payloads := splitSnapshot(t, data)
	sec := bytes.IndexByte(types, secDual)
	if sec < 0 {
		t.Fatal("fixture has no dual labeling section")
	}
	labels, ddgNodeKey := walkLabeling(t, payloads[sec])
	with := func(p []byte) []byte {
		ps := append([][]byte(nil), payloads...)
		ps[sec] = p
		return joinSnapshot(hdr, types, ps)
	}
	if !bytes.Equal(with(payloads[sec]), data) {
		t.Fatal("split and join do not reproduce the fixture")
	}
	out := map[string][]byte{}
	for _, sc := range strictCases {
		var hit *labelAt
		for i := range labels {
			if sc.first(&labels[i]) {
				hit = &labels[i]
				break
			}
		}
		if hit == nil {
			t.Fatalf("%s: no label of the fixture fits", sc.name)
		}
		out[sc.name] = with(sc.edit(payloads[sec], hit))
	}
	if ddgNodeKey < 0 {
		t.Fatal("fixture retains no DDG")
	}
	out["strict-ddg-nodes-not-the-trees"] = with(setVarint(payloads[sec], ddgNodeKey, false, uvarintAt(payloads[sec], ddgNodeKey)+1))
	return out
}

// treeStrictInputs are the tree sections a decomposition cannot be, each an
// edit of tri40-leaf8-v1.pfsnap's tree re-encoded as the only section of a
// snapshot (CRC fresh, no labeling over it, so only the tree decoder can
// object): a bag that lists a dart twice, and a bag holding a dart its
// parent does not.
func treeStrictInputs(t testing.TB) map[string][]byte {
	t.Helper()
	g := goldenFixtures[1].graph(t)
	data, err := os.ReadFile(goldenFixtures[1].path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, types, _ := splitSnapshot(t, data)
	if types[0] != secTree {
		t.Fatal("fixture does not open with a tree section")
	}
	edit := func(change func(tree *bdd.BDD)) []byte {
		c, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
		if err != nil {
			t.Fatal(err)
		}
		change(c.Trees[0].Tree)
		p, err := encodeTree(&c.Trees[0])
		if err != nil {
			t.Fatal(err)
		}
		h := binary.AppendUvarint(append([]byte(nil), hdr[:6+1+8]...), 1)
		return joinSnapshot(h, []byte{secTree}, [][]byte{p})
	}
	leaf := func(tree *bdd.BDD) *bdd.Bag {
		for _, b := range tree.Bags {
			if b.IsLeaf() && b.Parent != tree.Root {
				return b
			}
		}
		t.Fatal("fixture has no leaf below the root's children")
		return nil
	}
	return map[string][]byte{
		"strict-tree-repeated-dart": edit(func(tree *bdd.BDD) {
			b := leaf(tree)
			b.Darts = append(slices.Clip(b.Darts), b.Darts[0])
		}),
		"strict-tree-child-not-in-parent": edit(func(tree *bdd.BDD) {
			b := leaf(tree)
			for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
				if !b.Parent.Has(d) {
					b.Darts = append(slices.Clip(b.Darts[:len(b.Darts)-1]), d)
					return
				}
			}
			t.Fatal("a leaf's parent holds every dart")
		}),
	}
}

// TestTreeSectionStrictness: a tree section whose bags are not dart sets
// of the parent's is ErrCorrupt.
func TestTreeSectionStrictness(t *testing.T) {
	g := goldenFixtures[1].graph(t)
	for name, data := range treeStrictInputs(t) {
		if _, err := Decode(bytes.NewReader(data), g, lengthsFor(g)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestLabelSectionStrictness: a label section whose lists are not exactly
// the tree's layout is ErrCorrupt, never a short vector, an unset slot or
// an out-of-range write.
func TestLabelSectionStrictness(t *testing.T) {
	g := goldenFixtures[1].graph(t)
	for name, data := range strictInputs(t) {
		if _, err := Decode(bytes.NewReader(data), g, lengthsFor(g)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestTreeThatDoesNotHangTogether: a tree section that decodes on its own
// but whose bags contradict each other has no label layout, so the labeling
// sections over it are ErrCorrupt rather than a panic in the plan.
func TestTreeThatDoesNotHangTogether(t *testing.T) {
	fx := goldenFixtures[1]
	g := fx.graph(t)
	c := buildContentsAt(t, g, fx.leafLimit, 0)
	// The labelings (and their memoized plans) exist; now break the tree the
	// encoder writes: an internal bag's F_X gains a face the bag lacks.
	tree := c.Trees[0].Tree
	for _, b := range tree.Bags[1:] {
		if b.IsLeaf() {
			continue
		}
		for f := 0; f < g.Faces().NumFaces(); f++ {
			if !slices.Contains(b.Faces, f) {
				b.FX = append(append([]int(nil), b.FX...), f)
				data := encodeAll(t, g, c)
				if _, err := Decode(bytes.NewReader(data), g, lengthsFor(g)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				return
			}
		}
	}
	t.Fatal("no internal bag misses a face")
}

// TestRestoredEqualsComputed: a labeling restored from a snapshot is the
// one Compute produces over the same tree — label for label in positions,
// vectors and Child links, DDG for DDG — in both views, on both fixtures.
func TestRestoredEqualsComputed(t *testing.T) {
	for _, fx := range goldenFixtures {
		g := fx.graph(t)
		data, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Labels) != 2*len(fx.kinds) {
			t.Fatalf("%s: %d labelings", fx.path, len(c.Labels))
		}
		for _, le := range c.Labels {
			got := le.Labeling
			want := label.Compute(got.View(), got.T, got.Lengths, ledger.New())
			wantBags, wantDDGs := want.State()
			gotBags, gotDDGs := got.State()
			for id := range wantBags {
				if !reflect.DeepEqual(gotBags[id], wantBags[id]) {
					t.Fatalf("%s: %s kind %d: bag %d: restored labels differ from computed ones", fx.path, got.View(), le.Kind, id)
				}
			}
			if !reflect.DeepEqual(gotDDGs, wantDDGs) {
				t.Fatalf("%s: %s kind %d: restored DDGs differ from computed ones", fx.path, got.View(), le.Kind)
			}
		}
	}
}

// pricesInputs appends a prices section (type 4) to the package fixture's
// valid snapshot: the well-formed one, and one input per thing the section
// decoder refuses. CRCs are fresh, so only that decoder can object.
func pricesInputs(t testing.TB) (valid []byte, strict map[string][]byte) {
	t.Helper()
	_, base := fuzzSetup(t)
	hdr, types, payloads := splitSnapshot(t, base)
	prices := func(paUnit, rounds int64, extra ...byte) []byte {
		p := binary.AppendVarint(nil, paUnit)
		p = binary.AppendVarint(p, rounds)
		return append(p, extra...)
	}
	with := func(secs ...[]byte) []byte {
		h := append([]byte(nil), hdr[:6+1+8]...)
		h = binary.AppendUvarint(h, uint64(len(payloads)+len(secs)))
		ts, ps := append([]byte(nil), types...), append([][]byte(nil), payloads...)
		for _, s := range secs {
			ts, ps = append(ts, secPrices), append(ps, s)
		}
		return joinSnapshot(h, ts, ps)
	}
	return with(prices(14, 30)), map[string][]byte{
		"strict-minoragg-unit-below-one":  with(prices(0, 30)),
		"strict-minoragg-negative-rounds": with(prices(14, -1)),
		"strict-minoragg-duplicate":       with(prices(14, 30), prices(14, 30)),
		"strict-minoragg-trailing-bytes":  with(prices(14, 30, 0)),
	}
}

// TestPricesSection: the prices section round-trips (decode∘encode is the
// identity on a snapshot that carries one, and it is emitted last), a
// snapshot without one still encodes to the bytes it always did, and each
// malformed section is ErrCorrupt.
func TestPricesSection(t *testing.T) {
	g, base := fuzzSetup(t)
	valid, strict := pricesInputs(t)
	c, err := Decode(bytes.NewReader(valid), g, lengthsFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if c.Prices == nil || *c.Prices != (PricesEntry{PAUnit: 14, BuildRounds: 30}) {
		t.Fatalf("decoded prices %+v", c.Prices)
	}
	if !bytes.Equal(encodeAll(t, g, c), valid) {
		t.Fatal("snapshot with a prices section does not round-trip")
	}
	c.Prices = nil
	if !bytes.Equal(encodeAll(t, g, c), base) {
		t.Fatal("dropping the prices does not give back the snapshot without them")
	}
	for name, data := range strict {
		if _, err := Decode(bytes.NewReader(data), g, lengthsFor(g)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
