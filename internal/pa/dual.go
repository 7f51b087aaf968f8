package pa

import (
	"planarflow/internal/hatg"
	"planarflow/internal/ledger"
)

// DualPA solves the part-wise aggregation problem on the dual graph G*
// (Lemma 4.9): given a partition of the faces of G into parts and one input
// per face, every part's aggregate is computed by inducing the partition on
// the face-disjoint graph Ĝ (each dual node is simulated by the copies of
// its face cycle) and running shortcut-based PA there. Star centers only
// relay. Rounds on Ĝ are charged 2x on G (Property 3 of Ĝ).
//
// A DualPA is immutable once built, so one DualPA may serve concurrent
// callers.
type DualPA struct {
	h    *hatg.Graph
	tree *Tree
}

// Ĝ is its own communication network: its CSR lists every vertex's
// neighbors in one slab.
var _ Network = (*hatg.Graph)(nil)

// NewDualPA prepares the global shortcut skeleton on Ĝ, charging the BFS
// construction to led.
func NewDualPA(h *hatg.Graph, led *ledger.Ledger) *DualPA {
	d := &DualPA{h: h, tree: BuildTree(h, 0)}
	led.Measure("hatg/bfs-tree", 2*(d.tree.Height+1))
	return d
}

// aggregateFaces computes, for each part of the face partition, the
// op-aggregate of the per-face inputs. identity is op's neutral element
// (relay copies contribute it).
func (d *DualPA) aggregateFaces(partOfFace []int, numParts int, faceInput []int64, identity int64, op Op) *Result {
	h := d.h
	n := h.N()
	parts := Parts{Of: make([]int, n), Num: numParts}
	input := make([]int64, n)
	leader := faceLeaders(h)
	for x := 0; x < n; x++ {
		parts.Of[x] = -1
		input[x] = identity
		if h.IsStarCenter(x) {
			continue
		}
		f := h.FaceOfCopy(x)
		if p := partOfFace[f]; p >= 0 {
			parts.Of[x] = p
			if leader[f] == x {
				input[x] = faceInput[f]
			}
		}
	}
	return Aggregate(d.h, d.tree, parts, input, op)
}

// MeasureUnit runs one canonical faces-as-parts PA (the most congested
// pattern the paper's compilations use), charging nobody, and returns its
// measured CONGEST cost. minoragg.MeasurePrices prices every
// minor-aggregation round by it: the cost of one PA instance on this Ĝ.
func (d *DualPA) MeasureUnit() int64 {
	nf := d.h.Primal().Faces().NumFaces()
	partOf := make([]int, nf)
	in := make([]int64, nf)
	for f := range partOf {
		partOf[f] = f
		in[f] = 1
	}
	unit := int64(2 * d.aggregateFaces(partOf, nf, in, 0, Sum).Rounds)
	if unit < 1 {
		unit = 1
	}
	return unit
}

// faceLeaders elects the minimum-ID copy of each face (Property 4 of Ĝ; the
// distributed election is an Õ(D)-round PA which callers charge when they
// construct the DualPA).
func faceLeaders(h *hatg.Graph) []int {
	nf := h.Primal().Faces().NumFaces()
	leader := make([]int, nf)
	for f := range leader {
		leader[f] = -1
	}
	for x := h.Primal().N(); x < h.N(); x++ {
		f := h.FaceOfCopy(x)
		if leader[f] == -1 || x < leader[f] {
			leader[f] = x
		}
	}
	return leader
}
