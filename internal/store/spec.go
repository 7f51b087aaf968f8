package store

import (
	"fmt"

	"planarflow"
)

// MaxSpecVertices bounds the size of a generated graph: the store serves
// network requests, so a spec is untrusted input and must not be able to
// ask for an unbounded allocation.
const MaxSpecVertices = 1 << 20

// GraphSpec describes a generated graph, the wire-friendly way flowd
// clients register working sets without shipping an embedding. Weights and
// capacities default to the generator's unit values; a nonzero WHi (CHi)
// redraws weights (capacities) uniformly from [WLo, WHi] ([CLo, CHi])
// with the given seed.
type GraphSpec struct {
	// Kind selects the generator: "grid" (Rows x Cols grid), "cylinder"
	// (Rows x Cols cylindrical grid, Cols >= 3), "snake" (boustrophedon
	// one-way grid), or "triangulation" (random stacked triangulation on N
	// vertices).
	Kind string `json:"kind"`
	Rows int    `json:"rows,omitempty"`
	Cols int    `json:"cols,omitempty"`
	N    int    `json:"n,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	WLo  int64  `json:"w_lo,omitempty"`
	WHi  int64  `json:"w_hi,omitempty"`
	CLo  int64  `json:"c_lo,omitempty"`
	CHi  int64  `json:"c_hi,omitempty"`
}

// Validate checks the spec without building anything. Every refusal
// wraps ErrBadSpec, except a weight or capacity range wider than int64,
// which wraps planarflow.ErrWeightRange.
func (sp GraphSpec) Validate() error {
	switch sp.Kind {
	case "grid", "cylinder", "snake":
		if sp.Rows < 2 || sp.Cols < 2 {
			return fmt.Errorf("%w: %s needs rows, cols >= 2 (got %dx%d)", ErrBadSpec, sp.Kind, sp.Rows, sp.Cols)
		}
		if sp.Kind == "cylinder" && sp.Cols < 3 {
			return fmt.Errorf("%w: cylinder needs cols >= 3 (got %d)", ErrBadSpec, sp.Cols)
		}
		if sp.Rows > MaxSpecVertices/sp.Cols {
			return fmt.Errorf("%w: %s %dx%d exceeds %d vertices", ErrBadSpec, sp.Kind, sp.Rows, sp.Cols, MaxSpecVertices)
		}
	case "triangulation":
		if sp.N < 3 || sp.N > MaxSpecVertices {
			return fmt.Errorf("%w: triangulation needs 3 <= n <= %d (got %d)", ErrBadSpec, MaxSpecVertices, sp.N)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadSpec, sp.Kind)
	}
	if sp.WHi != 0 && sp.WLo > sp.WHi {
		return fmt.Errorf("%w: weight range [%d, %d] is empty", ErrBadSpec, sp.WLo, sp.WHi)
	}
	if sp.CHi != 0 && sp.CLo > sp.CHi {
		return fmt.Errorf("%w: capacity range [%d, %d] is empty", ErrBadSpec, sp.CLo, sp.CHi)
	}
	// Build draws from hi−lo+1 values, which must fit an int64; a range
	// that wide is far past the weight contract anyway.
	if sp.WHi != 0 && sp.WHi-sp.WLo+1 <= 0 || sp.CHi != 0 && sp.CHi-sp.CLo+1 <= 0 {
		return fmt.Errorf("store: weight or capacity range wider than int64: %w", planarflow.ErrWeightRange)
	}
	return nil
}

// Build validates the spec and materializes the graph.
func (sp GraphSpec) Build() (*planarflow.Graph, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var g *planarflow.Graph
	switch sp.Kind {
	case "grid":
		g = planarflow.GridGraph(sp.Rows, sp.Cols)
	case "cylinder":
		g = planarflow.CylinderGraph(sp.Rows, sp.Cols)
	case "snake":
		g = planarflow.BoustrophedonGridGraph(sp.Rows, sp.Cols)
	case "triangulation":
		g = planarflow.TriangulationGraph(sp.N, sp.Seed)
	}
	if sp.WHi != 0 || sp.CHi != 0 {
		wLo, wHi := sp.WLo, sp.WHi
		if wHi == 0 {
			wLo, wHi = 1, 1
		}
		cLo, cHi := sp.CLo, sp.CHi
		if cHi == 0 {
			cLo, cHi = 1, 1
		}
		g = g.WithRandomAttrs(sp.Seed, wLo, wHi, cLo, cHi)
	}
	return g, nil
}
