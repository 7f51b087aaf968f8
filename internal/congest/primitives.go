package congest

import (
	"planarflow/internal/planar"
)

// This file implements the textbook CONGEST building blocks the paper's
// algorithms are compiled from: distributed BFS, flooding/leader election,
// tree convergecast, and pipelined broadcast/upcast. Each primitive actually
// exchanges messages through the engine, so its round count is measured, not
// asserted.

// Tree is a rooted spanning tree described by parent darts: Parent[v] is the
// dart from v's parent to v (NoDart at the root).
type Tree struct {
	Root   int
	Parent []planar.Dart
	Depth  []int
	Height int
}

// Children returns, for every vertex, the darts pointing at its tree
// children.
func (t *Tree) Children(g *planar.Graph) [][]planar.Dart {
	ch := make([][]planar.Dart, g.N())
	for _, p := range t.Parent {
		if p != planar.NoDart {
			ch[g.Tail(p)] = append(ch[g.Tail(p)], p)
		}
	}
	return ch
}

type bfsToken struct{ dist int }

// DistributedBFS builds a BFS tree from root by flooding; it takes ecc(root)
// + O(1) measured rounds.
func DistributedBFS(e Runner, root int) (*Tree, Stats) {
	g := e.Graph()
	n := g.N()
	tree := &Tree{Root: root, Parent: make([]planar.Dart, n), Depth: make([]int, n)}
	joined := make([]bool, n)
	for v := range tree.Parent {
		tree.Parent[v] = planar.NoDart
		tree.Depth[v] = -1
	}
	stats := e.Run(func(c *Ctx) {
		v := c.V
		if c.Round == 0 && v == root {
			joined[v] = true
			tree.Depth[v] = 0
			for _, d := range g.Rotation(v) {
				c.Send(d, bfsToken{dist: 1}, e.B())
			}
		}
		if !joined[v] {
			for _, m := range c.In {
				tok, ok := m.Payload.(bfsToken)
				if !ok {
					continue
				}
				joined[v] = true
				tree.Parent[v] = m.In
				tree.Depth[v] = tok.dist
				for _, d := range g.Rotation(v) {
					if d != planar.Rev(m.In) {
						c.Send(d, bfsToken{dist: tok.dist + 1}, e.B())
					}
				}
				break
			}
		}
		c.Halt()
	}, 4*n+8)
	for _, dep := range tree.Depth {
		if dep > tree.Height {
			tree.Height = dep
		}
	}
	return tree, stats
}

type floodToken struct{ id int64 }

// FloodMin floods the minimum of the per-vertex values to every vertex
// (leader election when values are IDs); takes diameter + O(1) rounds.
func FloodMin(e Runner, values []int64) ([]int64, Stats) {
	g := e.Graph()
	best := make([]int64, g.N())
	copy(best, values)
	stats := e.Run(func(c *Ctx) {
		v := c.V
		improved := c.Round == 0
		for _, m := range c.In {
			if tok, ok := m.Payload.(floodToken); ok && tok.id < best[v] {
				best[v] = tok.id
				improved = true
			}
		}
		if improved {
			for _, d := range g.Rotation(v) {
				c.Send(d, floodToken{id: best[v]}, e.B())
			}
		}
		c.Halt()
	}, 4*g.N()+8)
	return best, stats
}

// AggregateOp is a commutative, associative combiner over int64 values.
type AggregateOp func(a, b int64) int64

type upToken struct{ val int64 }
type downToken struct{ val int64 }

// TreeAggregate convergecasts op over the per-vertex inputs up the given
// tree, then broadcasts the result back down; every vertex learns the
// aggregate. Takes O(height) measured rounds.
func TreeAggregate(e Runner, tree *Tree, input []int64, op AggregateOp) (int64, Stats) {
	g := e.Graph()
	n := g.N()
	children := tree.Children(g)
	pendingKids := make([]int, n)
	acc := make([]int64, n)
	sentUp := make([]bool, n)
	var result int64
	haveResult := make([]bool, n)
	for v := 0; v < n; v++ {
		pendingKids[v] = len(children[v])
		acc[v] = input[v]
	}
	stats := e.Run(func(c *Ctx) {
		v := c.V
		for _, m := range c.In {
			switch tok := m.Payload.(type) {
			case upToken:
				acc[v] = op(acc[v], tok.val)
				pendingKids[v]--
			case downToken:
				if !haveResult[v] {
					haveResult[v] = true
					for _, d := range children[v] {
						c.Send(d, downToken{val: tok.val}, e.B())
					}
				}
			}
		}
		if pendingKids[v] == 0 && !sentUp[v] {
			sentUp[v] = true
			if v == tree.Root {
				result = acc[v]
				haveResult[v] = true
				for _, d := range children[v] {
					c.Send(d, downToken{val: result}, e.B())
				}
			} else {
				c.Send(planar.Rev(tree.Parent[v]), upToken{val: acc[v]}, e.B())
			}
		}
		c.Halt()
	}, 8*n+16)
	return result, stats
}

type pipeToken struct {
	seq int
	val int64
}

// PipelinedBroadcast sends the k root values down the tree so every vertex
// receives all of them; pipelining makes this take height + k + O(1) rounds
// rather than height*k.
func PipelinedBroadcast(e Runner, tree *Tree, values []int64) ([][]int64, Stats) {
	g := e.Graph()
	n := g.N()
	children := tree.Children(g)
	got := make([][]int64, n)
	stats := e.Run(func(c *Ctx) {
		v := c.V
		if v == tree.Root && c.Round < len(values) {
			got[v] = append(got[v], values[c.Round])
			for _, d := range children[v] {
				c.Send(d, pipeToken{seq: c.Round, val: values[c.Round]}, e.B())
			}
		}
		for _, m := range c.In {
			if tok, ok := m.Payload.(pipeToken); ok {
				got[v] = append(got[v], tok.val)
				for _, d := range children[v] {
					c.Send(d, tok, e.B())
				}
			}
		}
		// The root keeps itself awake (Halt sleeps until a message arrives,
		// and nobody messages the root) until its last value is injected.
		if v != tree.Root || c.Round >= len(values)-1 {
			c.Halt()
		}
	}, 8*(n+len(values))+16)
	return got, stats
}
