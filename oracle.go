package planarflow

import (
	"fmt"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
)

// DistanceOracle answers vertex-to-vertex and face-to-face (dual) distance
// queries from the Õ(D)-bit distance labels of [27] and §5. It is a thin
// view over a PreparedGraph's label artifacts: construction costs Õ(D²)
// simulated rounds once per graph; afterwards any pair decodes locally from
// two labels — the paper's observation that the labeling "actually allows
// computation of all pairs shortest paths" (§5). Safe for concurrent use.
type DistanceOracle struct {
	g      *Graph
	primal *label.Labeling
	dual   *label.Labeling
	rounds Rounds
}

// DistanceOracle returns the undirected distance oracle over this prepared
// graph's label artifacts (both traversal directions of an edge cost its
// Weight), building them if needed. Weights may be negative as long as no
// negative cycle exists; a negative cycle is reported as ErrNegativeCycle,
// per Thm 2.1. Its Rounds report the cost paid by this call: the full
// labeling construction the first time, and zero once the artifacts are
// warm.
func (p *PreparedGraph) DistanceOracle() (*DistanceOracle, error) {
	return p.oracle(artifact.Undirected)
}

// DirectedDistanceOracle is DistanceOracle with one-way edge semantics:
// each edge is traversable only in its U -> V direction.
func (p *PreparedGraph) DirectedDistanceOracle() (*DistanceOracle, error) {
	return p.oracle(artifact.Directed)
}

func (p *PreparedGraph) oracle(kind artifact.LengthKind) (*DistanceOracle, error) {
	led := ledger.New()
	pl, err := p.art.PrimalLabels(kind, 0, led)
	if err != nil {
		return nil, fmt.Errorf("planarflow: %w", err)
	}
	if pl.NegCycle {
		return nil, fmt.Errorf("planarflow: graph: %w", ErrNegativeCycle)
	}
	dl, err := p.art.DualLabels(kind, 0, led)
	if err != nil {
		return nil, fmt.Errorf("planarflow: %w", err)
	}
	if dl.NegCycle {
		return nil, fmt.Errorf("planarflow: dual graph: %w", ErrNegativeCycle)
	}
	return &DistanceOracle{g: p.gr, primal: pl, dual: dl, rounds: roundsOf(led)}, nil
}

// Rounds reports the construction cost paid when this oracle was built (zero
// when it was served from an already-warm PreparedGraph).
func (o *DistanceOracle) Rounds() Rounds { return o.rounds }

// Dist returns the shortest-path distance from u to v (Inf if unreachable).
func (o *DistanceOracle) Dist(u, v int) (int64, error) {
	if u < 0 || v < 0 || u >= o.g.N() || v >= o.g.N() {
		return 0, fmt.Errorf("planarflow: vertex pair (%d,%d) out of [0,%d): %w", u, v, o.g.N(), ErrVertexRange)
	}
	return o.primal.Dist(u, v), nil
}

// DualDist returns the shortest-path distance between two faces in the dual
// graph G* (each edge crossable in both directions at its weight, or one
// direction for directed oracles).
func (o *DistanceOracle) DualDist(f1, f2 int) (int64, error) {
	if f1 < 0 || f2 < 0 || f1 >= o.g.NumFaces() || f2 >= o.g.NumFaces() {
		return 0, fmt.Errorf("planarflow: face pair (%d,%d) out of [0,%d): %w", f1, f2, o.g.NumFaces(), ErrFaceRange)
	}
	return o.dual.Dist(f1, f2), nil
}

// LabelWords returns the size, in O(log n)-bit words, of vertex v's primal
// label — the quantity Lemma 5.17 bounds by Õ(D).
func (o *DistanceOracle) LabelWords(v int) int {
	l := o.primal.Label(o.primal.T.Root, v)
	if l == nil {
		return 0
	}
	return l.Words()
}
