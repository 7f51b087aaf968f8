package planar

import (
	"errors"
	"fmt"
	"sync"
)

// Edge is a directed, weighted, capacitated edge of a planar graph. The
// direction (U -> V) carries algorithmic meaning (flow direction, directed
// lengths); the embedding is on the undirected support.
type Edge struct {
	U, V   int
	Weight int64
	Cap    int64
}

// Graph is a connected embedded planar graph. It is immutable after
// construction; algorithms derive their own per-dart length/capacity vectors
// (indexed by Dart) rather than mutating the graph.
type Graph struct {
	n     int
	edges []Edge

	// rot[v] is the cyclic (clockwise, by convention of the generator) order
	// of darts whose tail is v. rotPos[d] is the index of d within
	// rot[Tail(d)]. head[d] is the vertex d enters, so d's tail is
	// head[Rev(d)].
	rot    [][]Dart
	rotPos []int32
	head   []int32

	// totalCap and minCap are the sum and the least of the capacities (0
	// for both without edges).
	totalCap, minCap int64

	facesOnce sync.Once
	faces     *FaceData // lazily computed face structure (guarded by facesOnce)
}

// NewGraph builds an embedded planar graph from an explicit rotation system.
// rot[v] must list, in cyclic order, exactly the darts whose tail is v.
// The construction is validated: darts must partition correctly and the
// rotation system must describe a connected planar embedding (Euler check).
func NewGraph(n int, edges []Edge, rot [][]Dart) (*Graph, error) {
	g := &Graph{
		n:      n,
		edges:  make([]Edge, len(edges)),
		rot:    make([][]Dart, n),
		rotPos: make([]int32, 2*len(edges)),
		head:   make([]int32, 2*len(edges)),
	}
	copy(g.edges, edges)
	for e, ed := range edges {
		g.totalCap += ed.Cap
		if e == 0 || ed.Cap < g.minCap {
			g.minCap = ed.Cap
		}
	}
	if len(rot) != n {
		return nil, fmt.Errorf("planar: rotation system has %d vertices, want %d", len(rot), n)
	}
	for v := range rot {
		g.rot[v] = make([]Dart, len(rot[v]))
		copy(g.rot[v], rot[v])
	}
	if err := g.indexRotations(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGraph is NewGraph that panics on error; intended for generators and
// tests whose inputs are correct by construction.
func MustGraph(n int, edges []Edge, rot [][]Dart) *Graph {
	g, err := NewGraph(n, edges, rot)
	if err != nil {
		panic(err)
	}
	return g
}

// indexRotations checks that every dart is listed once, at the vertex its
// edge leaves from, and fills rotPos and head from the lists.
func (g *Graph) indexRotations() error {
	seen := make([]bool, 2*len(g.edges))
	for v, ds := range g.rot {
		for i, d := range ds {
			if d < 0 || int(d) >= 2*len(g.edges) {
				return fmt.Errorf("planar: vertex %d lists out-of-range dart %d", v, d)
			}
			if seen[d] {
				return fmt.Errorf("planar: dart %d appears twice in rotation system", d)
			}
			seen[d] = true
			tail := g.edges[EdgeOf(d)].V
			if IsForward(d) {
				tail = g.edges[EdgeOf(d)].U
			}
			if tail != v {
				return fmt.Errorf("planar: dart %d (tail %d) listed at vertex %d", d, tail, v)
			}
			g.rotPos[d], g.head[Rev(d)] = int32(i), int32(v)
		}
	}
	for d, ok := range seen {
		if !ok {
			return fmt.Errorf("planar: dart %d missing from rotation system", d)
		}
	}
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// NumDarts returns 2*M().
func (g *Graph) NumDarts() int { return 2 * len(g.edges) }

// Edge returns edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Tail returns the vertex the dart leaves.
func (g *Graph) Tail(d Dart) int { return int(g.head[Rev(d)]) }

// Head returns the vertex the dart enters.
func (g *Graph) Head(d Dart) int { return int(g.head[d]) }

// Degree returns the number of edge-ends at v.
func (g *Graph) Degree(v int) int { return len(g.rot[v]) }

// Rotation returns the cyclic order of outgoing darts at v. The returned
// slice must not be modified.
func (g *Graph) Rotation(v int) []Dart { return g.rot[v] }

// RotationIndex returns the position of d within Rotation(Tail(d)).
func (g *Graph) RotationIndex(d Dart) int { return int(g.rotPos[d]) }

// NextInRotation returns the dart following d in the cyclic order at Tail(d).
func (g *Graph) NextInRotation(d Dart) Dart {
	v := g.Tail(d)
	i := int(g.rotPos[d]) + 1
	if i == len(g.rot[v]) {
		i = 0
	}
	return g.rot[v][i]
}

// FaceSuccessor returns the dart that follows d on the boundary cycle of the
// face containing d: the rotation successor of Rev(d) at Head(d). Orbits of
// this permutation are exactly the faces of the embedding.
func (g *Graph) FaceSuccessor(d Dart) Dart { return g.NextInRotation(Rev(d)) }

// Validate checks that the rotation system describes a connected planar
// embedding: the graph is connected and Euler's formula n - m + f = 2 holds.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return errors.New("planar: empty graph")
	}
	if !g.Connected() {
		return errors.New("planar: graph is not connected")
	}
	f := g.Faces().NumFaces()
	if g.n-g.M()+f != 2 {
		return fmt.Errorf("planar: Euler check failed: n=%d m=%d f=%d (n-m+f=%d, want 2)",
			g.n, g.M(), f, g.n-g.M()+f)
	}
	return nil
}

// Connected reports whether the undirected support is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return false
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.rot[v] {
			u := g.Head(d)
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == g.n
}

// TotalCap returns the sum of all edge capacities (used to bound flow values).
func (g *Graph) TotalCap() int64 { return g.totalCap }

// MinCap returns the least edge capacity, 0 without edges.
func (g *Graph) MinCap() int64 { return g.minCap }
