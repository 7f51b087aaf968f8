package planarflow

// Persistent substrate snapshots: the public surface of the persistence
// layer (internal/snapshot). Snapshot serializes the substrates a
// PreparedGraph has built — the BDD and the primal/dual distance
// labelings, the paper's §5 artifact — into a versioned, checksummed
// binary stream; RestorePrepared decodes that stream into a fresh
// PreparedGraph whose queries find every restored substrate warm. The
// stream holds the tree and names the labelings; restoring decodes the
// tree and relabels over it at simulation speed, charging zero rounds
// (the substrates report the Õ(D²) construction rounds they originally
// cost), so a warm restart never re-runs the tree's construction.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"planarflow/internal/snapshot"
)

// Snapshot writes the substrates built so far to w in the snapshot
// format (magic, format version, graph fingerprint, per-substrate
// checksummed sections). In-flight builds are excluded until they
// publish; a PreparedGraph with nothing built writes a valid, empty
// snapshot. The encoding is deterministic: equal substrate states
// produce equal bytes.
//
// The snapshot is bound to this graph: RestorePrepared verifies the
// fingerprint and refuses to restore against any other graph.
func (p *PreparedGraph) Snapshot(w io.Writer) error {
	if err := p.art.Export(w); err != nil {
		return fmt.Errorf("planarflow: snapshot: %w", err)
	}
	return nil
}

// RestorePrepared reads a snapshot previously written by
// PreparedGraph.Snapshot and returns a PreparedGraph for gr with every
// snapshotted substrate already built. Answers from the restored graph
// are bit-identical to the original's; restored substrates report their
// original construction cost through Stats and BuildRounds (and Build=0
// on query answers, exactly like any already-warm substrate).
//
// The snapshot must have been taken from a graph equal to gr (same
// vertices, edges, weights, capacities and embedding): a fingerprint
// mismatch returns ErrSnapshotMismatch. Damaged input — truncation,
// checksum failure, version skew, structural corruption — returns an
// error wrapping ErrBadSnapshot. No partial restore is visible on error.
func RestorePrepared(gr *Graph, r io.Reader) (*PreparedGraph, error) {
	return RestorePreparedContext(context.Background(), gr, r)
}

// RestorePreparedContext is RestorePrepared under ctx: a ctx that ends
// while the labelings are computed over the restored tree stops the
// restore between bags, and its error is returned (wrapped, neither
// ErrBadSnapshot nor ErrSnapshotMismatch: the snapshot may be sound).
// The returned PreparedGraph is not bound to ctx.
func RestorePreparedContext(ctx context.Context, gr *Graph, r io.Reader) (*PreparedGraph, error) {
	p, err := Prepare(gr)
	if err != nil {
		return nil, err
	}
	if err := p.art.WithContext(ctx).ImportInto(r); err != nil {
		return nil, fmt.Errorf("planarflow: restore: %w", mapSnapshotErr(err))
	}
	return p, nil
}

// mapSnapshotErr folds the internal codec sentinels into the two public
// ones while keeping the detailed message.
func mapSnapshotErr(err error) error {
	switch {
	case errors.Is(err, snapshot.ErrFingerprint):
		return fmt.Errorf("%v: %w", err, ErrSnapshotMismatch)
	case errors.Is(err, snapshot.ErrBadMagic),
		errors.Is(err, snapshot.ErrVersion),
		errors.Is(err, snapshot.ErrChecksum),
		errors.Is(err, snapshot.ErrTruncated),
		errors.Is(err, snapshot.ErrCorrupt):
		return fmt.Errorf("%v: %w", err, ErrBadSnapshot)
	default:
		return err
	}
}
