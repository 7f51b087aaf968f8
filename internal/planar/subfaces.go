package planar

// SubFaces is the face structure of an embedded subgraph: the orbits of the
// face-successor permutation induced by restricting every rotation to a
// subset of the edges. Orbits correspond to faces of the sub-embedding; an
// orbit that does not coincide with a face of the full graph walks a region
// merged from several faces (a "hole" plus face fragments, in the BDD's
// vocabulary).
type SubFaces struct {
	darts []Dart // every orbit's boundary darts, orbit after orbit
	start []int  // orbit f is darts[start[f]:start[f+1]]
}

// NewSubFaces computes the face structure of the subgraph of g induced by
// the kept edges. The subgraph must be non-empty; connectivity is not
// required here (callers that need it check separately).
func NewSubFaces(g *Graph, edgeIn []bool) *SubFaces {
	kept := 0
	for _, in := range edgeIn {
		if in {
			kept++
		}
	}
	sf := &SubFaces{darts: make([]Dart, 0, 2*kept), start: []int{0}}
	seen := make([]bool, g.NumDarts())
	// Induced rotations: per vertex, kept darts in rotation order.
	inducedNext := func(d Dart) Dart {
		// Successor of Rev(d) at Head(d), skipping dropped edges.
		x := Rev(d)
		for {
			x = g.NextInRotation(x)
			if edgeIn[EdgeOf(x)] {
				return x
			}
		}
	}
	for e := 0; e < g.M(); e++ {
		if !edgeIn[e] {
			continue
		}
		for _, d := range [2]Dart{ForwardDart(e), BackwardDart(e)} {
			if seen[d] {
				continue
			}
			for x := d; !seen[x]; x = inducedNext(x) {
				seen[x] = true
				sf.darts = append(sf.darts, x)
			}
			sf.start = append(sf.start, len(sf.darts))
		}
	}
	return sf
}

// NumFaces returns the number of sub-embedding faces (orbits).
func (sf *SubFaces) NumFaces() int { return len(sf.start) - 1 }

// Cycle returns the boundary darts of orbit f. Must not be modified.
func (sf *SubFaces) Cycle(f int) []Dart { return sf.darts[sf.start[f]:sf.start[f+1]:sf.start[f+1]] }
