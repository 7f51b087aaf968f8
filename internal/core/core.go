package core

import (
	"errors"
	"fmt"

	"planarflow/internal/artifact"
	"planarflow/internal/label"
	"planarflow/internal/ledger"
)

// Typed precondition errors. The public layer maps these onto its own
// sentinels, so each precondition is checked in exactly one place (here,
// where the algorithms need the invariant anyway).
var (
	// ErrNotSTPlanar reports that s and t share no face, violating the
	// st-planarity precondition of the Hassin-route algorithms.
	ErrNotSTPlanar = errors.New("core: s and t do not share a face")
	// ErrNegativeWeight reports negative edge weights where non-negative
	// weights are required (global min cut, directed girth).
	ErrNegativeWeight = errors.New("core: negative edge weights not supported")
	// ErrNonPositiveWeight reports non-positive weights where strictly
	// positive weights are required (girth).
	ErrNonPositiveWeight = errors.New("core: edge weights must be positive")
	// ErrFaceRange reports a face id outside [0, NumFaces).
	ErrFaceRange = errors.New("core: face out of range")
)

// DualSSSP computes single-source shortest paths in the dual graph G* from
// the given source face, with per-edge lengths taken from edge weights
// applied to both crossing directions (Thm 2.1 / Lemma 2.2). The dual
// labeling under these lengths is the reusable artifact; the per-query work
// is one label broadcast and decode (Õ(D) rounds). Negative weights are
// allowed; a negative dual cycle is reported in the result instead of
// distances.
func DualSSSP(p *artifact.Prepared, sourceFace int, opt Options, led *ledger.Ledger) (*label.SSSPResult, error) {
	g := p.Graph()
	if sourceFace < 0 || sourceFace >= g.Faces().NumFaces() {
		return nil, fmt.Errorf("%w: face %d of [0,%d)", ErrFaceRange, sourceFace, g.Faces().NumFaces())
	}
	la, err := p.DualLabels(artifact.Undirected, opt.LeafLimit, led)
	if err != nil {
		return nil, err
	}
	if la.NegCycle {
		return &label.SSSPResult{Source: sourceFace, NegCycle: true}, nil
	}
	return la.SSSP(sourceFace, led), nil
}
