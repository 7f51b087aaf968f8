package planarflow

import "errors"

// Sentinel errors for argument validation, applied uniformly across the
// public API. Every error returned for an invalid argument wraps one of
// these, so callers dispatch with errors.Is instead of string matching;
// the wrapping message carries the offending values.
var (
	// ErrVertexRange reports a vertex id outside [0, N).
	ErrVertexRange = errors.New("vertex out of range")
	// ErrFaceRange reports a face id outside [0, NumFaces).
	ErrFaceRange = errors.New("face out of range")
	// ErrSameVertex reports s == t where distinct endpoints are required.
	ErrSameVertex = errors.New("s and t must differ")
	// ErrSameFaceRequired reports an st-planar precondition violation: the
	// approximate flow/cut algorithms need s and t on a common face.
	ErrSameFaceRequired = errors.New("s and t must share a face")
	// ErrEpsilonRange reports an approximation parameter outside [0, 1).
	ErrEpsilonRange = errors.New("epsilon out of [0, 1)")
	// ErrNegativeCycle reports a (primal or dual) negative cycle where
	// distances were requested; per Thm 2.1 the labeling detects and
	// reports it instead of returning invalid distances.
	ErrNegativeCycle = errors.New("negative cycle")
	// ErrNegativeWeight reports negative edge weights passed to an
	// algorithm requiring non-negative weights (global min cut, directed
	// girth).
	ErrNegativeWeight = errors.New("negative edge weights not supported")
	// ErrNonPositiveWeight reports non-positive edge weights passed to an
	// algorithm requiring strictly positive weights (girth).
	ErrNonPositiveWeight = errors.New("edge weights must be positive")
	// ErrNilGraph reports a nil *Graph handed to Prepare.
	ErrNilGraph = errors.New("nil graph")
	// ErrUnknownQueryKind reports a Query whose Kind is not one of
	// QueryKinds (including the zero Query).
	ErrUnknownQueryKind = errors.New("unknown query kind")
	// ErrUnknownSubstrate reports a Substrate name Warm does not know.
	ErrUnknownSubstrate = errors.New("unknown substrate")
	// ErrWeightRange reports a graph outside the weight contract of
	// DESIGN §3, (n+1)·(Σ|weight| + Σ|capacity|) ≤ 2^53, within which
	// every answer is exact; Prepare and the store's registration refuse
	// such a graph rather than return a wrapped or saturated number.
	ErrWeightRange = errors.New("weights and capacities out of range")
	// ErrLeafLimitRange reports a negative BDD leaf limit.
	ErrLeafLimitRange = errors.New("leaf limit must be non-negative")
	// ErrBadSnapshot reports snapshot bytes RestorePrepared cannot decode:
	// foreign data, a future format version, a failed checksum, truncation,
	// or a structurally invalid payload.
	ErrBadSnapshot = errors.New("bad snapshot")
	// ErrSnapshotMismatch reports a structurally valid snapshot that was
	// encoded against a different graph (fingerprint mismatch); restoring
	// it would silently corrupt answers, so it is rejected.
	ErrSnapshotMismatch = errors.New("snapshot belongs to a different graph")
)
