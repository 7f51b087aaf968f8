// Command dualview exports an embedded planar graph, its dual G*, or its
// Bounded Diameter Decomposition as Graphviz DOT for inspection.
//
//	dualview -kind grid -rows 4 -cols 5 -view primal > g.dot
//	dualview -view dual | dot -Tsvg > dual.svg
//	dualview -view bdd
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"planarflow/internal/bdd"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

func main() {
	kind := flag.String("kind", "grid", "grid | cylinder | triangulation | snake")
	rows := flag.Int("rows", 4, "rows")
	cols := flag.Int("cols", 5, "cols")
	n := flag.Int("n", 32, "vertices (triangulation)")
	seed := flag.Int64("seed", 1, "seed")
	view := flag.String("view", "primal", "primal | dual | bdd")
	flag.Parse()

	var g *planar.Graph
	switch *kind {
	case "grid":
		g = planar.Grid(*rows, *cols)
	case "cylinder":
		g = planar.Cylinder(*rows, *cols)
	case "triangulation":
		g = planar.StackedTriangulation(*n, planar.NewRand(*seed))
	case "snake":
		g = planar.BoustrophedonGrid(*rows, *cols)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}

	w := os.Stdout
	switch *view {
	case "primal":
		fmt.Fprintln(w, "digraph primal {")
		fmt.Fprintln(w, "  node [shape=circle];")
		for e := 0; e < g.M(); e++ {
			ed := g.Edge(e)
			fmt.Fprintf(w, "  %d -> %d [label=\"e%d w%d c%d\"];\n", ed.U, ed.V, e, ed.Weight, ed.Cap)
		}
		fmt.Fprintln(w, "}")
	case "dual":
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
	case "bdd":
		tree := bdd.Build(g, 16, ledger.New())
		fmt.Fprintln(w, "digraph bdd {")
		fmt.Fprintln(w, "  node [shape=record];")
		for _, b := range tree.Bags {
			kind := "leaf"
			if !b.IsLeaf() {
				kind = fmt.Sprintf("|S_X|=%d |F_X|=%d", len(b.Sep.CycleVertices), len(b.FX))
			}
			fp := 0
			for _, f := range b.Faces {
				if !b.IsWhole(f) {
					fp++
				}
			}
			fmt.Fprintf(w, "  b%d [label=\"bag %d | lvl %d | %d edges | %d faces (%d parts) | %s\"];\n",
				b.ID, b.ID, b.Level, b.NumEdges(), len(b.Faces), fp, kind)
			for _, c := range b.Children {
				fmt.Fprintf(w, "  b%d -> b%d;\n", b.ID, c.ID)
			}
		}
		fmt.Fprintln(w, "}")
	default:
		log.Fatalf("unknown view %q", *view)
	}
}
