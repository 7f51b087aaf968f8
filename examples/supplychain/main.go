// Supplychain: resilience analysis of a directed logistics network. The
// directed global minimum cut (Thm 1.5) finds the cheapest set of shipping
// lanes whose failure strands some region (no outgoing freight), without
// fixing a source/sink pair in advance — the global version of the
// bottleneck question. The directed girth (the [36] SSSP route) bounds the
// shortest possible routing loop.
package main

import (
	"context"
	"fmt"
	"log"

	"planarflow"
)

func main() {
	// A one-way logistics network: snake-style lane directions keep every
	// hub mutually reachable, so stranding a region always costs something.
	g := planarflow.BoustrophedonGridGraph(6, 10).WithRandomAttrs(5, 1, 9, 1, 1)

	// Each question gets its own prepared graph, so each answer's Rounds
	// carry the full Build + Query cost of its route.
	cut, err := solve(g, planarflow.GlobalMinCutQuery())
	if err != nil {
		log.Fatal(err)
	}
	if cut.Value == 0 {
		// Some region already has no outgoing lanes: report it.
		stranded := 0
		for _, inSide := range cut.Side {
			if inSide {
				stranded++
			}
		}
		fmt.Printf("network already has a zero-cost failure mode: a %d-hub region "+
			"with no outgoing lanes\n", stranded)
	} else {
		fmt.Printf("cheapest region-stranding failure: %d capacity across %d lanes\n",
			cut.Value, len(cut.Edges))
		for _, e := range cut.Edges {
			ed := g.EdgeAt(e)
			fmt.Printf("  lane %3d: hub %2d -> %2d (weight %d)\n", e, ed.U, ed.V, ed.Weight)
		}
	}

	loop, err := solve(g, planarflow.DirectedGirthQuery())
	if err != nil {
		log.Fatal(err)
	}
	if loop.Value == planarflow.Inf {
		fmt.Println("routing graph is acyclic: no freight can loop")
	} else {
		fmt.Printf("shortest possible routing loop: total weight %d\n", loop.Value)
	}
	fmt.Printf("cost: global cut %d rounds, directed girth %d rounds (both Õ(D²); D=%d)\n",
		cut.Rounds.Total, loop.Rounds.Total, g.Diameter())
}

// solve answers q on a freshly prepared g.
func solve(g *planarflow.Graph, q planarflow.Query) (*planarflow.Answer, error) {
	p, err := planarflow.Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.Do(context.Background(), q)
}
