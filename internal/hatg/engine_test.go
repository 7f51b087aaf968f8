package hatg

import (
	"testing"

	"planarflow/internal/congest"
	"planarflow/internal/planar"
)

// hatMsg is one Ĝ message in flight: the Ĝ vertex it is for and the BFS
// distance it carries.
type hatMsg struct {
	to, dist int
}

// TestHatGDiameterByMessagePassing runs a BFS over Ĝ on the one CONGEST
// engine of G, simulated as §3 prescribes (Property 3): primal vertex v
// hosts its star center and its corner copies, so star and chord arcs never
// leave the host, and a ring arc crosses the primal dart it duplicates. Dart
// d carries the forward use of ring(d) and the reverse use of ring(rev d),
// so forward uses go in even G-rounds and reverse uses in odd ones: one Ĝ
// round is two G-rounds. Every distance must equal a centralized BFS over
// Ĝ, the run must keep the per-dart budget and halt on its own, and it may
// take at most 2·(height+1) G-rounds — what pa.NewDualPA charges as
// hatg/bfs-tree — plus the engine's one quiet round.
func TestHatGDiameterByMessagePassing(t *testing.T) {
	rng := planar.NewRand(5)
	for name, g := range map[string]*planar.Graph{
		"grid5x5":    planar.Grid(5, 5),
		"grid2x12":   planar.Grid(2, 12),
		"cyl3x6":     planar.Cylinder(3, 6),
		"path1x6":    planar.Grid(1, 6),
		"stacked40":  planar.StackedTriangulation(40, rng),
		"stacked200": planar.StackedTriangulation(200, rng),
		"sparse":     planar.RemoveRandomEdges(planar.StackedTriangulation(120, rng), rng, 60),
	} {
		h := New(g)
		want, height := centralBFS(h, 0)

		// fwd[d] is ring(d)'s endpoint at Head(d), reached over dart d;
		// back[d] its endpoint at Tail(d), reached over rev d.
		fwd := make([]int, g.NumDarts())
		back := make([]int, g.NumDarts())
		for x := 0; x < h.N(); x++ {
			for _, a := range h.Adj(x) {
				if a.Kind == Ring && h.owner[x] == g.Tail(a.Dart) {
					back[a.Dart], fwd[a.Dart] = x, a.To
				}
			}
		}

		dist := make([]int, h.N())
		for x := range dist {
			dist[x] = -1
		}
		inbox := make([][]hatMsg, g.N())         // for the host's next Ĝ round
		odd := make([][]congest.Received, g.N()) // reverse uses held for the odd G-round
		misrouted := make([]int, g.N())          // per host: Ĝ vertices it received but does not run

		e := congest.NewEngine(g)
		stats := e.Run(func(c *congest.Ctx) {
			v := c.V
			for _, m := range c.In {
				// Sent in the previous G-round: an even one carries ring(In)
				// forward, an odd one ring(rev In) in reverse.
				to := fwd[m.In]
				if c.Round%2 == 0 {
					to = back[planar.Rev(m.In)]
				}
				if h.owner[to] != v {
					misrouted[v]++
					continue
				}
				inbox[v] = append(inbox[v], hatMsg{to: to, dist: m.Payload.(int)})
			}
			if c.Round%2 == 1 {
				for _, m := range odd[v] {
					c.Send(m.In, m.Payload, e.B())
				}
				odd[v] = odd[v][:0]
				if len(inbox[v]) == 0 {
					c.Halt()
				}
				return
			}

			// Even G-round 2k: the host steps its Ĝ vertices for Ĝ round k.
			var reached []int
			if c.Round == 0 && v == 0 {
				dist[0] = 0
				reached = append(reached, 0)
			}
			msgs := inbox[v]
			inbox[v] = nil
			for _, m := range msgs {
				if dist[m.to] < 0 {
					dist[m.to] = m.dist
					reached = append(reached, m.to)
				}
			}
			for _, x := range reached {
				for _, a := range h.Adj(x) {
					switch {
					case a.Kind != Ring:
						inbox[v] = append(inbox[v], hatMsg{to: a.To, dist: dist[x] + 1})
					case g.Tail(a.Dart) == v:
						c.Send(a.Dart, dist[x]+1, e.B())
					default:
						odd[v] = append(odd[v], congest.Received{In: planar.Rev(a.Dart), Payload: dist[x] + 1})
					}
				}
			}
			if len(odd[v]) == 0 && len(inbox[v]) == 0 {
				c.Halt()
			}
		}, 8*h.N()+8)

		for v, k := range misrouted {
			if k != 0 {
				t.Fatalf("%s: host %d received %d messages for Ĝ vertices it does not run", name, v, k)
			}
		}
		for x := range want {
			if dist[x] != want[x] {
				t.Fatalf("%s: Ĝ vertex %d at distance %d, centralized BFS says %d", name, x, dist[x], want[x])
			}
		}
		if stats.Violations != 0 || !stats.HaltedNormal {
			t.Fatalf("%s: violations=%d haltedNormal=%v", name, stats.Violations, stats.HaltedNormal)
		}
		t.Logf("%s: rounds=%d height=%d msgs=%d", name, stats.Rounds, height, stats.Messages)
		if limit := 2*(height+1) + 1; stats.Rounds > limit {
			t.Fatalf("%s: %d G-rounds, above 2·(height+1)+1 = %d (height %d)", name, stats.Rounds, limit, height)
		}
	}
}

// centralBFS returns hop distances over Ĝ from root and the largest one.
func centralBFS(h *Graph, root int) ([]int, int) {
	dist := make([]int, h.N())
	for x := range dist {
		dist[x] = -1
	}
	dist[root] = 0
	queue := []int{root}
	for i := 0; i < len(queue); i++ {
		x := queue[i]
		for _, a := range h.Adj(x) {
			if dist[a.To] < 0 {
				dist[a.To] = dist[x] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist, dist[queue[len(queue)-1]]
}
