package snapshot

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"planarflow/internal/planar"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden snapshot fixtures")

// goldenFixtures are the committed version-1 snapshots. grid5x6 is the
// package's fixture graph (one tree, one labeling of each family);
// tri40-leaf8 is a triangulation cut down to leaf limit 8, so the tree
// has at least four levels and the labels carry Child chains through
// several bags, with both labelings for the Undirected and Directed kinds.
var goldenFixtures = []struct {
	path      string
	graph     func(t testing.TB) *planar.Graph
	leafLimit int
	kinds     []byte
	minDepth  int
}{
	{"testdata/grid5x6-v1.pfsnap", testGraph, 16, []byte{0}, 1},
	{"testdata/tri40-leaf8-v1.pfsnap", func(testing.TB) *planar.Graph {
		rng := planar.NewRand(40)
		return planar.WithRandomWeights(planar.StackedTriangulation(40, rng), rng, 1, 9, 1, 16)
	}, 8, []byte{0, 1}, 4},
}

// TestGoldenByteStability pins the version-1 byte format: each committed
// fixture must decode, and re-encoding today's build of the same
// substrates must reproduce it byte-for-byte. A failure means the codec
// changed encoding for version 1 — which breaks every snapshot already
// on disk — or a builder stopped being deterministic. Either bump the
// format version (and keep the old decoder) or fix the regression;
// regenerate the fixtures with `go test -run Golden -update-golden
// ./internal/snapshot` only for an intentional, version-bumped change.
func TestGoldenByteStability(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(filepath.Base(fx.path), func(t *testing.T) {
			g := fx.graph(t)
			c := buildContentsAt(t, g, fx.leafLimit, fx.kinds...)
			if d := c.Trees[0].Tree.Depth; d < fx.minDepth {
				t.Fatalf("tree has %d levels, fixture wants at least %d", d, fx.minDepth)
			}
			data := encodeAll(t, g, c)

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(fx.path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(fx.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden fixture rewritten: %d bytes", len(data))
				return
			}

			want, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatalf("golden fixture missing (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(data, want) {
				i := 0
				for i < len(data) && i < len(want) && data[i] == want[i] {
					i++
				}
				t.Fatalf("snapshot bytes diverge from golden fixture at offset %d (%d vs %d bytes total)",
					i, len(data), len(want))
			}

			// The committed bytes must also decode and round-trip.
			c2, err := Decode(bytes.NewReader(want), g, lengthsFor(g))
			if err != nil {
				t.Fatalf("golden fixture failed to decode: %v", err)
			}
			if !bytes.Equal(encodeAll(t, g, c2), want) {
				t.Fatal("golden fixture does not round-trip")
			}
		})
	}
}
