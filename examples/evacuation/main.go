// Evacuation: approximate st-planar flow for emergency planning. A coastal
// district must evacuate from the waterfront (s) to the inland highway
// ramp (t); both lie on the outer face of the planar street network, so
// Hassin's reduction applies and Theorem 1.3 gives a (1-ε)-approximate
// evacuation plan in near-optimal D·n^{o(1)} rounds — much faster than the
// exact Õ(D²) algorithm, at a 10% capacity discount.
package main

import (
	"context"
	"fmt"
	"log"

	"planarflow"
)

func main() {
	const rows, cols = 10, 14
	// Street capacities: people per minute, 100-800 per street.
	g := planarflow.GridGraph(rows, cols).WithRandomAttrs(11, 1, 1, 100, 800)
	s := 0             // waterfront corner
	t := rows*cols - 1 // highway ramp (also on the outer face)
	if !g.SharedFace(s, t) {
		log.Fatal("s and t must share a face for the st-planar algorithm")
	}

	ctx := context.Background()
	p, err := planarflow.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}
	const eps = 0.1
	approx, err := p.Do(ctx, planarflow.STFlowQuery(s, t, eps))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evacuation rate (>= %.0f%% of optimal): %d people/min\n",
		100*(1-eps), approx.Value)

	// The assignment is a real routable plan: verify it.
	if err := planarflow.CheckUndirectedFlow(g, s, t, approx.Flow, approx.Value); err != nil {
		log.Fatalf("plan verification failed: %v", err)
	}
	fmt.Println("plan verified: street capacities respected, no people lost at intersections")

	// Exact run (ε = 0) for comparison, and the choke-point cut.
	exact, err := p.Do(ctx, planarflow.STFlowQuery(s, t, 0))
	if err != nil {
		log.Fatal(err)
	}
	cut, err := p.Do(ctx, planarflow.STCutQuery(s, t, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal rate: %d people/min; approximation achieved %.1f%%\n",
		exact.Value, 100*float64(approx.Value)/float64(exact.Value))
	fmt.Printf("choke point: %d streets with total capacity %d\n",
		len(cut.Edges), cut.Value)
	fmt.Printf("cost: approx %d rounds vs exact max-flow route Õ(D²); D = %d\n",
		approx.Rounds.Total, g.Diameter())
}
