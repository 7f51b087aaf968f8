package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"planarflow/internal/bdd"
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

// strictInputs are the labeling sections version 2 refuses, each one edit
// of tri40-leaf8-v2.pfsnap (CRCs fresh, so only the section decoders can
// object): a labeling whose tree is not in the snapshot, a labeling section
// given twice, a labeling section with bytes after its three fields, and
// the fixture's tree repeated under leaf limits 8, 9, … with every (view,
// kind) labeled over each, one tree more than the relabel budget pays for.
func strictInputs(t testing.TB) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenFixtures[1].encodesTo)
	if err != nil {
		t.Fatal(err)
	}
	hdr, types, payloads := splitSnapshot(t, data)
	sec := bytes.IndexByte(types, secDual)
	if types[0] != secTree || sec < 0 {
		t.Fatal("fixture does not hold a tree and a dual labeling")
	}
	if !bytes.Equal(joinSnapshot(hdr, types, payloads), data) {
		t.Fatal("split and join do not reproduce the fixture")
	}
	with := func(types []byte, payloads [][]byte) []byte {
		h := binary.AppendUvarint(append([]byte(nil), hdr[:6+1+8]...), uint64(len(payloads)))
		return joinSnapshot(h, types, payloads)
	}
	trailing := slices.Clone(payloads)
	trailing[sec] = append(slices.Clone(payloads[sec]), 0)
	return map[string][]byte{
		"strict-label-missing-tree": with(types[1:], payloads[1:]),
		"strict-label-duplicate-section": with(append(slices.Clone(types), types[sec]),
			append(slices.Clone(payloads), payloads[sec])),
		"strict-v2-label-trailing-bytes": with(types, trailing),
		"strict-label-relabel-budget":    overBudget(t, data),
	}
}

// overBudget repeats the tree of data, a snapshot of the tri40 fixture,
// under leaf limits 8, 9, … with a labeling section for every (view, kind)
// over each, until the sections ask for more relabelling than the graph's
// budget.
func overBudget(t testing.TB, data []byte) []byte {
	t.Helper()
	g := goldenFixtures[1].graph(t)
	c, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
	if err != nil {
		t.Fatal(err)
	}
	tree := c.Trees[0]
	var perTree int64
	for _, v := range []label.View{label.Dual, label.Primal} {
		w, err := label.PassWords(v, tree.Tree)
		if err != nil {
			t.Fatal(err)
		}
		perTree += 3 * (w + int64(g.NumDarts()))
	}
	var types []byte
	var payloads [][]byte
	for n := int64(0); n*perTree <= relabelBudget(g); n++ {
		tree.LeafLimit = 8 + int(n)
		p, err := encodeTree(&tree)
		if err != nil {
			t.Fatal(err)
		}
		types, payloads = append(types, secTree), append(payloads, p)
		for _, typ := range []byte{secDual, secPrimal} {
			for kind := byte(0); kind < 3; kind++ {
				types = append(types, typ)
				payloads = append(payloads, encodeLabeling(&LabelEntry{Kind: kind, LeafLimit: tree.LeafLimit}))
			}
		}
	}
	hdr := binary.AppendUvarint(append([]byte(nil), data[:6+1+8]...), uint64(len(payloads)))
	return joinSnapshot(hdr, types, payloads)
}

// treeStrictInputs are the tree sections a decomposition cannot be, each an
// edit of tri40-leaf8-v2.pfsnap's tree re-encoded as the only section of a
// snapshot (CRC fresh, no labeling over it, so only the tree decoder can
// object): a bag that lists a dart twice, and a bag holding a dart its
// parent does not.
func treeStrictInputs(t testing.TB) map[string][]byte {
	t.Helper()
	g := goldenFixtures[1].graph(t)
	data, err := os.ReadFile(goldenFixtures[1].encodesTo)
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

// TestLabelSectionStrictness: what a version-2 labeling section can still
// say wrong — a tree the snapshot lacks, a second section for the same
// labeling, bytes after its three fields, more relabelling than the budget —
// is ErrCorrupt, found before any labeling is computed: the lengths a pass
// starts from are never asked for. The labels themselves are computed, not
// read (TestRestoredEqualsComputed).
func TestLabelSectionStrictness(t *testing.T) {
	g := goldenFixtures[1].graph(t)
	for name, data := range strictInputs(t) {
		computed := 0
		lengths := func(kind byte) ([]int64, error) {
			computed++
			return lengthsFor(g)(kind)
		}
		if _, err := Decode(bytes.NewReader(data), g, lengths); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		} else {
			t.Logf("%s (%d B): %v", name, len(data), err)
		}
		if computed > 0 {
			t.Errorf("%s: %d labelings computed before the refusal", name, computed)
		}
	}
}

// TestDecodeCanceled: a context that ends while the labelings are computed
// is the error, not a snapshot fault; the same bytes decode under a live
// one.
func TestDecodeCanceled(t *testing.T) {
	fx := goldenFixtures[1]
	g := fx.graph(t)
	data, err := os.ReadFile(fx.encodesTo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeContext(ctx, bytes.NewReader(data), g, lengthsFor(g)); !errors.Is(err, context.Canceled) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("canceled: got %v, want context.Canceled alone", err)
	}
	if _, err := DecodeContext(context.Background(), bytes.NewReader(data), g, lengthsFor(g)); err != nil {
		t.Fatal(err)
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
