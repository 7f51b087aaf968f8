package snapshot

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"planarflow/internal/planar"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the current-version golden snapshot fixtures")

// goldenFixtures are the committed snapshots, version 1 first. grid5x6 is
// the package's fixture graph (one tree, one labeling of each family);
// tri40-leaf8 is a triangulation cut down to leaf limit 8, so the tree has
// at least four levels and the labels carry Child chains through several
// bags, with both labelings for the Undirected and Directed kinds. encodesTo
// is the fixture today's encoder writes for the same substrates: a
// current-version fixture's own path, the current twin of an older one.
// Version-1 fixtures are never rewritten: they are the files the previous
// format left on disk.
var goldenFixtures = []struct {
	path      string
	graph     func(t testing.TB) *planar.Graph
	leafLimit int
	kinds     []byte
	minDepth  int
	encodesTo string
}{
	{"testdata/grid5x6-v1.pfsnap", testGraph, 16, []byte{0}, 1, "testdata/grid5x6-v2.pfsnap"},
	{"testdata/tri40-leaf8-v1.pfsnap", tri40Graph, 8, []byte{0, 1}, 4, "testdata/tri40-leaf8-v2.pfsnap"},
	{"testdata/grid5x6-v2.pfsnap", testGraph, 16, []byte{0}, 1, "testdata/grid5x6-v2.pfsnap"},
	{"testdata/tri40-leaf8-v2.pfsnap", tri40Graph, 8, []byte{0, 1}, 4, "testdata/tri40-leaf8-v2.pfsnap"},
}

func tri40Graph(testing.TB) *planar.Graph {
	rng := planar.NewRand(40)
	return planar.WithRandomWeights(planar.StackedTriangulation(40, rng), rng, 1, 9, 1, 16)
}

// TestGoldenByteStability pins the byte format: today's build of each
// fixture's substrates encodes to its current-version bytes, and each
// committed fixture decodes and re-encodes to them too — a version-2 file
// to itself, a version-1 file to its version-2 twin. A failure means the
// encoding of version 2 changed — which breaks every snapshot already on
// disk — the decoder stopped reading a version, or a builder stopped being
// deterministic. Either bump the format version (and keep reading the old
// one) or fix the regression; regenerate the current-version fixtures with
// `go test -run Golden -update-golden ./internal/snapshot` only for an
// intentional, version-bumped change.
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
				if fx.path != fx.encodesTo {
					t.Skip("an older version's fixture is never rewritten")
				}
				if err := os.WriteFile(fx.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden fixture rewritten: %d bytes", len(data))
				return
			}

			want, err := os.ReadFile(fx.encodesTo)
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

			// The committed bytes must decode and re-encode to the current ones.
			committed, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := Decode(bytes.NewReader(committed), g, lengthsFor(g))
			if err != nil {
				t.Fatalf("golden fixture failed to decode: %v", err)
			}
			if !bytes.Equal(encodeAll(t, g, c2), want) {
				t.Fatalf("golden fixture does not re-encode to %s", fx.encodesTo)
			}
		})
	}
}
