package planar

// FaceData holds the face structure of an embedded planar graph: the orbit
// partition of the face-successor permutation. Each face is a cyclic sequence
// of darts; every dart belongs to exactly one face. The layout is SubFaces':
// one slab of every face's darts, face after face, and per-face offsets.
type FaceData struct {
	faceOf []int  // faceOf[d] = face index containing dart d
	darts  []Dart // every face's boundary darts, in orbit order
	start  []int  // face f is darts[start[f]:start[f+1]]
}

// Faces computes (and caches) the face structure. Safe for concurrent use:
// the prepared-graph serving layer calls it from many query goroutines.
func (g *Graph) Faces() *FaceData {
	g.facesOnce.Do(g.computeFaces)
	return g.faces
}

func (g *Graph) computeFaces() {
	nd := g.NumDarts()
	// Euler's formula sizes the offsets of a connected planar embedding;
	// any other rotation system only grows them.
	fd := &FaceData{
		faceOf: make([]int, nd),
		darts:  make([]Dart, 0, nd),
		start:  make([]int, 1, max(2-g.n+g.M(), 0)+1),
	}
	for d := range fd.faceOf {
		fd.faceOf[d] = -1
	}
	for d0 := Dart(0); int(d0) < nd; d0++ {
		if fd.faceOf[d0] != -1 {
			continue
		}
		f := len(fd.start) - 1
		d := d0
		for {
			fd.faceOf[d] = f
			fd.darts = append(fd.darts, d)
			d = g.FaceSuccessor(d)
			if d == d0 {
				break
			}
		}
		fd.start = append(fd.start, len(fd.darts))
	}
	g.faces = fd
}

// NumFaces returns the number of faces.
func (fd *FaceData) NumFaces() int { return len(fd.start) - 1 }

// FaceOf returns the face containing dart d.
func (fd *FaceData) FaceOf(d Dart) int { return fd.faceOf[d] }

// Cycle returns the boundary darts of face f in orbit order. The returned
// slice must not be modified; its capacity ends with the face, so appending
// to it copies instead of writing over face f+1.
func (fd *FaceData) Cycle(f int) []Dart { return fd.darts[fd.start[f]:fd.start[f+1]:fd.start[f+1]] }

// Len returns the number of darts on the boundary of face f.
func (fd *FaceData) Len(f int) int { return fd.start[f+1] - fd.start[f] }

// LargestFace returns the face with the most boundary darts (a natural choice
// of "outer" face for generators that do not fix one).
func (fd *FaceData) LargestFace() int {
	best, bestLen := 0, -1
	for f := 0; f < fd.NumFaces(); f++ {
		if l := fd.Len(f); l > bestLen {
			best, bestLen = f, l
		}
	}
	return best
}

// FacesAtVertex returns the distinct faces incident to vertex v, in rotation
// order (a face may repeat around v in multigraph-like situations; duplicates
// are removed while preserving first-occurrence order).
func (g *Graph) FacesAtVertex(v int) []int {
	fd := g.Faces()
	seen := make(map[int]bool, len(g.rot[v]))
	var out []int
	for _, d := range g.rot[v] {
		f := fd.FaceOf(d)
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// CommonFaces returns the faces incident to both u and v (used e.g. by the
// Hassin reduction, which requires s and t on a common face).
func (g *Graph) CommonFaces(u, v int) []int {
	fu := g.FacesAtVertex(u)
	set := make(map[int]bool, len(fu))
	for _, f := range fu {
		set[f] = true
	}
	var out []int
	for _, f := range g.FacesAtVertex(v) {
		if set[f] {
			out = append(out, f)
		}
	}
	return out
}
