// Girthmesh: shortest-cycle detection in a sensor mesh. The weighted girth
// of the communication graph bounds how quickly feedback loops can form
// (e.g. gossip echo, routing micro-loops); Theorem 1.7 finds it in Õ(D)
// rounds — the same order as a single BFS — by computing a minimum cut of
// the dual graph.
package main

import (
	"context"
	"fmt"
	"log"

	"planarflow"
)

func main() {
	// A cylindrical sensor belt (e.g. around a pipeline): 6 rings of 30
	// sensors; link weights are measured latencies in [5, 40] ms.
	g := planarflow.CylinderGraph(6, 30).WithRandomAttrs(3, 5, 40, 1, 1)

	p, err := planarflow.Prepare(g)
	if err != nil {
		log.Fatal(err)
	}
	res, err := p.Do(context.Background(), planarflow.GirthQuery())
	if err != nil {
		log.Fatal(err)
	}
	if res.Value == planarflow.Inf {
		fmt.Println("mesh is acyclic: no feedback loops possible")
		return
	}
	fmt.Printf("fastest feedback loop: %d ms around %d links\n",
		res.Value, len(res.Edges))
	for _, e := range res.Edges {
		ed := g.EdgeAt(e)
		fmt.Printf("  link %3d: sensor %3d <-> %3d (%d ms)\n", e, ed.U, ed.V, ed.Weight)
	}

	fmt.Printf("cost: %d simulated CONGEST rounds (D = %d) — near-linear in D, "+
		"not D² (Thm 1.7 vs the D² SSSP route)\n",
		res.Rounds.Total, g.Diameter())
}
