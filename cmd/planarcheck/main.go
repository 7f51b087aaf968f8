// Command planarcheck inspects the embedded-planar-graph substrate. It
// generates a graph and, by -view, prints one of:
//
//   - summary (the default): Euler's formula, the face-disjoint graph
//     invariants, and the structural quantities the paper's algorithms
//     depend on (faces, diameter, BDD shape, construction rounds);
//   - primal: the graph as Graphviz DOT;
//   - dual: its dual G* as DOT;
//   - bdd: its Bounded Diameter Decomposition as DOT.
//
// The decomposition is the one queries use: bdd.Build at the default leaf
// limit.
//
//	planarcheck -kind triangulation -n 64
//	planarcheck -kind grid -rows 4 -cols 5 -view primal > g.dot
//	planarcheck -view dual | dot -Tsvg > dual.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"planarflow/internal/bdd"
	"planarflow/internal/hatg"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func main() {
	kind := flag.String("kind", "grid", "grid | cylinder | triangulation | nested | snake")
	rows := flag.Int("rows", 6, "rows (grid/cylinder/snake)")
	cols := flag.Int("cols", 8, "cols (grid/cylinder/snake)")
	n := flag.Int("n", 64, "vertices (triangulation/nested)")
	seed := flag.Int64("seed", 1, "random seed (triangulation)")
	view := flag.String("view", "summary", "summary | primal | dual | bdd")
	flag.Parse()

	var g *planar.Graph
	switch *kind {
	case "grid":
		g = planar.Grid(*rows, *cols)
	case "cylinder":
		g = planar.Cylinder(*rows, *cols)
	case "triangulation":
		g = planar.StackedTriangulation(*n, planar.NewRand(*seed))
	case "nested":
		g = planar.NestedTriangles(*n / 3)
	case "snake":
		g = planar.BoustrophedonGrid(*rows, *cols)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}

	w := os.Stdout
	switch *view {
	case "summary":
		summary(w, *kind, g)
	case "primal":
		primalDOT(w, g)
	case "dual":
		dualDOT(w, g)
	case "bdd":
		bddDOT(w, bdd.Build(g, 0, ledger.New()))
	default:
		log.Fatalf("unknown view %q", *view)
	}
}

func summary(w io.Writer, kind string, g *planar.Graph) {
	fd := g.Faces()
	fmt.Fprintf(w, "graph: %s  n=%d m=%d faces=%d (Euler: %d-%d+%d = %d)\n",
		kind, g.N(), g.M(), fd.NumFaces(), g.N(), g.M(), fd.NumFaces(),
		g.N()-g.M()+fd.NumFaces())
	fmt.Fprintf(w, "diameter: exact=%d 2-sweep>=%d\n", g.Diameter(), g.DiameterLowerBound())

	h := hatg.New(g)
	if err := h.CheckFaceCycles(); err != nil {
		log.Fatalf("face-disjoint graph invalid: %v", err)
	}
	fmt.Fprintf(w, "face-disjoint graph: |V|=%d (n + 2m), face cycles verified\n", h.N())

	led := ledger.New()
	tree := bdd.Build(g, 0, led)
	fmt.Fprintf(w, "BDD: leaf limit=%d bags=%d depth=%d max|S_X|=%d max|F_X|=%d max face-parts=%d\n",
		tree.LeafLimit, len(tree.Bags), tree.Depth, tree.MaxSXSize(), tree.MaxFX(), tree.MaxFaceParts())
	fmt.Fprintf(w, "construction rounds charged: %d\n", led.Total())

	big, second := 0, 0
	for f := 0; f < fd.NumFaces(); f++ {
		if s := fd.Len(f); s > big {
			big, second = s, big
		} else if s > second {
			second = s
		}
	}
	fmt.Fprintf(w, "largest face boundaries: %d, %d darts\n", big, second)
}

func primalDOT(w io.Writer, g *planar.Graph) {
	fmt.Fprintln(w, "digraph primal {")
	fmt.Fprintln(w, "  node [shape=circle];")
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		fmt.Fprintf(w, "  %d -> %d [label=\"e%d w%d c%d\"];\n", ed.U, ed.V, e, ed.Weight, ed.Cap)
	}
	fmt.Fprintln(w, "}")
}

func dualDOT(w io.Writer, g *planar.Graph) {
	du := g.Dual()
	fd := g.Faces()
	fmt.Fprintln(w, "digraph dual {")
	fmt.Fprintln(w, "  node [shape=box];")
	for f := 0; f < du.NumNodes(); f++ {
		fmt.Fprintf(w, "  f%d [label=\"f%d (%d darts)\"];\n", f, f, fd.Len(f))
	}
	for e := 0; e < g.M(); e++ {
		d := planar.ForwardDart(e)
		fmt.Fprintf(w, "  f%d -> f%d [label=\"e%d\"];\n", du.Tail(d), du.Head(d), e)
	}
	fmt.Fprintln(w, "}")
}

func bddDOT(w io.Writer, tree *bdd.BDD) {
	fmt.Fprintln(w, "digraph bdd {")
	fmt.Fprintln(w, "  node [shape=record];")
	for _, b := range tree.Bags {
		kind := "leaf"
		if !b.IsLeaf() {
			kind = fmt.Sprintf("|S_X|=%d |F_X|=%d", len(b.Sep.CycleVertices), len(b.FX))
		}
		parts := 0
		for _, f := range b.Faces {
			if !b.IsWhole(f) {
				parts++
			}
		}
		fmt.Fprintf(w, "  b%d [label=\"bag %d | lvl %d | %d edges | %d faces (%d parts) | %s\"];\n",
			b.ID, b.ID, b.Level, b.NumEdges(), len(b.Faces), parts, kind)
		for _, c := range b.Children {
			fmt.Fprintf(w, "  b%d -> b%d;\n", b.ID, c.ID)
		}
	}
	fmt.Fprintln(w, "}")
}
