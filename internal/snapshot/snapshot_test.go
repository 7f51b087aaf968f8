package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"planarflow/internal/bdd"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// testGraph is the fixture graph of this package: a weighted 5x6 grid,
// deterministic by seed.
func testGraph(t testing.TB) *planar.Graph {
	t.Helper()
	rng := planar.NewRand(7)
	return planar.WithRandomWeights(planar.Grid(5, 6), rng, 1, 9, 1, 16)
}

// undirected / directed per-dart lengths, mirroring artifact.Lengths.
func lengthsFor(g *planar.Graph) LengthsFunc {
	return func(kind byte) ([]int64, error) {
		switch kind {
		case 0:
			return label.UniformLengths(g, false), nil
		case 1:
			return label.UniformLengths(g, true), nil
		case 2:
			lens := make([]int64, g.NumDarts())
			for e := 0; e < g.M(); e++ {
				lens[planar.ForwardDart(e)] = g.Edge(e).Weight
				lens[planar.BackwardDart(e)] = 0
			}
			return lens, nil
		default:
			return nil, fmt.Errorf("%w: unknown length kind %d", ErrCorrupt, kind)
		}
	}
}

// buildContents constructs one tree plus a dual and a primal labeling
// over it — the three substrate families of one snapshot.
func buildContents(t testing.TB, g *planar.Graph) *Contents {
	return buildContentsAt(t, g, 16, 0)
}

// buildContentsAt is buildContents at a chosen leaf limit with one dual and
// one primal labeling per listed length kind, in section order (duals
// before primals).
func buildContentsAt(t testing.TB, g *planar.Graph, leafLimit int, kinds ...byte) *Contents {
	t.Helper()
	led := ledger.New()
	tree := bdd.Build(g, leafLimit, led)
	c := &Contents{Trees: []TreeEntry{{LeafLimit: leafLimit, BuildRounds: led.Total(), Tree: tree}}}
	rounds := [...]int64{label.Dual: 11, label.Primal: 22}
	for _, v := range []label.View{label.Dual, label.Primal} {
		for _, kind := range kinds {
			lens, err := lengthsFor(g)(kind)
			if err != nil {
				t.Fatal(err)
			}
			la := label.Compute(v, tree, lens, ledger.New())
			if la.NegCycle {
				t.Fatal("unexpected negative cycle")
			}
			c.Labels = append(c.Labels, LabelEntry{Kind: kind, LeafLimit: leafLimit, BuildRounds: rounds[v] + int64(kind), Labeling: la})
		}
	}
	return c
}

func encodeAll(t testing.TB, g *planar.Graph, c *Contents) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, g, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	g := testGraph(t)
	c := buildContents(t, g)
	data := encodeAll(t, g, c)

	got, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != 1 || len(got.Labels) != 2 ||
		got.Labels[0].Labeling.View() != label.Dual || got.Labels[1].Labeling.View() != label.Primal {
		t.Fatalf("decoded %d trees, %d labelings", len(got.Trees), len(got.Labels))
	}
	if got.Trees[0].BuildRounds != c.Trees[0].BuildRounds ||
		got.Labels[0].BuildRounds != 11 || got.Labels[1].BuildRounds != 22 {
		t.Fatal("build rounds did not round-trip")
	}

	// Structural identity of the tree.
	want, have := c.Trees[0].Tree, got.Trees[0].Tree
	if len(want.Bags) != len(have.Bags) || want.Depth != have.Depth || want.LeafLimit != have.LeafLimit {
		t.Fatalf("tree shape mismatch: %d/%d bags", len(want.Bags), len(have.Bags))
	}
	for i := range want.Bags {
		wb, hb := want.Bags[i], have.Bags[i]
		if len(wb.Darts) != len(hb.Darts) || wb.Level != hb.Level || wb.TreeDepth != hb.TreeDepth {
			t.Fatalf("bag %d mismatch", i)
		}
		for j := range wb.Darts {
			if wb.Darts[j] != hb.Darts[j] {
				t.Fatalf("bag %d dart order mismatch", i)
			}
		}
		if len(wb.Faces) != len(hb.Faces) {
			t.Fatalf("bag %d faces mismatch", i)
		}
		for j := range wb.Faces {
			if wb.Faces[j] != hb.Faces[j] {
				t.Fatalf("bag %d face order mismatch", i)
			}
		}
		if (wb.Sep == nil) != (hb.Sep == nil) {
			t.Fatalf("bag %d separator presence mismatch", i)
		}
		if wb.Sep != nil {
			for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
				if ws, hs := wb.SideOf(d), hb.SideOf(d); ws != hs {
					t.Fatalf("bag %d side of dart %d = %d, want %d", i, d, hs, ws)
				}
			}
		}
	}

	// Answer identity: all-pairs primal and dual distances agree.
	wantP, haveP := c.Labels[1].Labeling, got.Labels[1].Labeling
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if wantP.Dist(u, v) != haveP.Dist(u, v) {
				t.Fatalf("primal dist(%d,%d) = %d, want %d", u, v, haveP.Dist(u, v), wantP.Dist(u, v))
			}
		}
	}
	nf := g.Faces().NumFaces()
	wantD, haveD := c.Labels[0].Labeling, got.Labels[0].Labeling
	for f1 := 0; f1 < nf; f1++ {
		for f2 := 0; f2 < nf; f2++ {
			if wantD.Dist(f1, f2) != haveD.Dist(f1, f2) {
				t.Fatalf("dual dist(%d,%d) mismatch", f1, f2)
			}
		}
	}
	// Dual SSSP exercises label Words and the tree depth accounting.
	for _, src := range []int{0, nf / 2, nf - 1} {
		a := wantD.SSSP(src, ledger.New())
		b := haveD.SSSP(src, ledger.New())
		for f := range a.Dist {
			if a.Dist[f] != b.Dist[f] || a.TreeDart[f] != b.TreeDart[f] {
				t.Fatalf("dual SSSP from %d diverges at face %d", src, f)
			}
		}
	}
	// Retained DDGs round-trip (the global-min-cut route reads them).
	_, wddg := wantD.State()
	_, hddg := haveD.State()
	for i := range wddg {
		if (wddg[i] == nil) != (hddg[i] == nil) {
			t.Fatalf("ddg presence mismatch at bag %d", i)
		}
		if wddg[i] == nil {
			continue
		}
		if len(wddg[i].Nodes) != len(hddg[i].Nodes) || len(wddg[i].Arcs) != len(hddg[i].Arcs) {
			t.Fatalf("ddg shape mismatch at bag %d", i)
		}
		for r := range wddg[i].Dist {
			for c2 := range wddg[i].Dist[r] {
				if wddg[i].Dist[r][c2] != hddg[i].Dist[r][c2] {
					t.Fatalf("ddg dist mismatch at bag %d", i)
				}
			}
		}
	}

	// The decisive determinism check: re-encoding the decoded contents
	// reproduces the input byte-for-byte.
	data2 := encodeAll(t, g, got)
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(data2))
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := testGraph(t)
	c := buildContents(t, g)
	a := encodeAll(t, g, c)
	b := encodeAll(t, g, c)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same state differ")
	}
	// An independent rebuild of the same substrates must also encode
	// identically (build determinism feeding codec determinism).
	c2 := buildContents(t, testGraph(t))
	if !bytes.Equal(a, encodeAll(t, testGraph(t), c2)) {
		t.Fatal("independent rebuild encodes differently")
	}
}

func TestDecodeErrors(t *testing.T) {
	g := testGraph(t)
	data := encodeAll(t, g, buildContents(t, g))
	lf := lengthsFor(g)

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte("NOTASNAP"), data[8:]...)
		if _, err := Decode(bytes.NewReader(bad), g, lf); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[6] = Version + 1
		if _, err := Decode(bytes.NewReader(bad), g, lf); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		other := planar.WithRandomWeights(planar.Grid(5, 6), planar.NewRand(8), 1, 9, 1, 16)
		if _, err := Decode(bytes.NewReader(data), other, lengthsFor(other)); !errors.Is(err, ErrFingerprint) {
			t.Fatalf("got %v, want ErrFingerprint", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x40 // flip a payload bit
		_, err := Decode(bytes.NewReader(bad), g, lf)
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want a typed decode error", err)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, cut := range []int{0, 3, 7, 14, 15, 16, len(data) / 3, len(data) - 5, len(data) - 1} {
			_, err := Decode(bytes.NewReader(data[:cut]), g, lf)
			if err == nil {
				t.Fatalf("truncation at %d decoded successfully", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("truncation at %d: got %v, want typed error", cut, err)
			}
		}
	})
	t.Run("trailing", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0xff)
		if _, err := Decode(bytes.NewReader(bad), g, lf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(nil), g, lf); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

// TestEmptySnapshot pins that zero substrates is a valid snapshot.
func TestEmptySnapshot(t *testing.T) {
	g := testGraph(t)
	data := encodeAll(t, g, &Contents{})
	c, err := Decode(bytes.NewReader(data), g, lengthsFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Trees)+len(c.Labels) != 0 {
		t.Fatal("empty snapshot decoded substrates")
	}
}

// TestNegCycleLabeling pins the partial-labeling path: a labeling that
// aborted on a negative cycle still round-trips (some bags lack labels).
func TestNegCycleLabeling(t *testing.T) {
	g := planar.Grid(4, 4)
	// A negative undirected length function guarantees a negative cycle in
	// the dual (every face cycle has negative length).
	lens := make([]int64, g.NumDarts())
	for d := range lens {
		lens[d] = -1
	}
	led := ledger.New()
	tree := bdd.Build(g, 8, led)
	dl := label.Compute(label.Dual, tree, lens, ledger.New())
	if !dl.NegCycle {
		t.Skip("fixture did not produce a negative cycle")
	}
	c := &Contents{
		Trees:  []TreeEntry{{LeafLimit: 8, BuildRounds: led.Total(), Tree: tree}},
		Labels: []LabelEntry{{Kind: 9, LeafLimit: 8, BuildRounds: 1, Labeling: dl}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g, c); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()), g, func(kind byte) ([]int64, error) {
		if kind != 9 {
			t.Fatalf("unexpected kind %d", kind)
		}
		return lens, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Labels[0].Labeling.NegCycle {
		t.Fatal("NegCycle flag lost")
	}
	if got.Labels[0].Labeling.Dist(0, 1) != spath.Inf {
		t.Fatal("neg-cycle labeling must report Inf")
	}
}
