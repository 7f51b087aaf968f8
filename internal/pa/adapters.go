package pa

import (
	"planarflow/internal/hatg"
)

// adjNet is a Network over a fixed adjacency list.
type adjNet struct {
	adj [][]int
}

var _ Network = (*adjNet)(nil)

func (a *adjNet) N() int                  { return len(a.adj) }
func (a *adjNet) NeighborsOf(v int) []int { return a.adj[v] }

// FromHatG adapts the face-disjoint graph Ĝ as a communication network.
func FromHatG(h *hatg.Graph) Network {
	adj := make([][]int, h.N())
	for x := 0; x < h.N(); x++ {
		for _, a := range h.Adj(x) {
			adj[x] = append(adj[x], a.To)
		}
	}
	return &adjNet{adj: adj}
}
