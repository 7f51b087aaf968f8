// Roadgrid: capacity planning on a directed road network. City road grids
// are planar; this example models rush-hour throughput from a residential
// corner to the business district as a directed max-flow, then uses the
// min-cut bisection to locate the bottleneck streets that cap throughput.
package main

import (
	"context"
	"fmt"
	"log"

	"planarflow"
)

func main() {
	const rows, cols = 8, 12
	// Streets: a one-way downtown grid (eastbound and southbound only, the
	// Manhattan pattern) with lane capacities 1-6 vehicles per unit time.
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(7, 1, 1, 1, 6)

	src := 0             // residential corner
	dst := rows*cols - 1 // business district
	// The first query on a prepared graph builds the BDD and pays for it;
	// the min-cut query after it finds the BDD resident.
	ctx := context.Background()
	p, err := planarflow.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}
	flow, err := p.Do(ctx, planarflow.MaxFlowQuery(src, dst))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peak-hour throughput %d vehicles/unit from %d to %d\n",
		flow.Value, src, dst)

	cut, err := p.Do(ctx, planarflow.MinSTCutQuery(src, dst))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bottleneck: %d streets carry the entire flow:\n", len(cut.Edges))
	for _, e := range cut.Edges {
		ed := g.EdgeAt(e)
		fmt.Printf("  street %3d: intersection %3d -> %3d (capacity %d)\n",
			e, ed.U, ed.V, ed.Cap)
	}

	// Every cut street must be saturated by the max flow (complementary
	// slackness) — a useful operational sanity check.
	saturated := 0
	for _, e := range cut.Edges {
		if flow.Flow[e] == g.EdgeAt(e).Cap {
			saturated++
		}
	}
	fmt.Printf("saturated bottleneck streets: %d/%d\n", saturated, len(cut.Edges))
	fmt.Printf("distributed cost: %d rounds over a diameter-%d network\n",
		flow.Rounds.Total, g.Diameter())
}
