package planar

// Dual is a structural view of the dual graph G* of an embedded planar graph.
//
// G* has a node per face of G and, for every dart d of G, a dual dart d*
// oriented from the face containing d to the face containing Rev(d). The two
// dual darts of an edge are reversals of each other, mirroring the primal
// dart algebra, so Dart values index both primal and dual darts.
//
// With the paper's convention, the dual of a directed edge e is the dual dart
// of e's forward dart: it crosses e from one side to the other; whether that
// side is geometrically "left" or "right" depends only on the global
// handedness of the rotation system and is consistent across the graph.
//
// G* may be a multigraph (two faces sharing several edges) and may contain
// self-loops (bridges); algorithms that need a simple graph deactivate
// parallels per Lemma 4.15.
type Dual struct {
	fd *FaceData
}

// Dual returns the dual view of g.
func (g *Graph) Dual() *Dual { return &Dual{fd: g.Faces()} }

// NumNodes returns the number of dual nodes (faces of G).
func (du *Dual) NumNodes() int { return du.fd.NumFaces() }

// Tail returns the dual node the dual dart of d leaves: the face containing d.
func (du *Dual) Tail(d Dart) int { return du.fd.FaceOf(d) }

// Head returns the dual node the dual dart of d enters: the face containing
// Rev(d).
func (du *Dual) Head(d Dart) int { return du.fd.FaceOf(Rev(d)) }
