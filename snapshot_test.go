package planarflow_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"planarflow"
)

// snapshotSubstrates is the full substrate set — warming it makes the
// snapshot carry every family's decode source.
var snapshotSubstrates = []planarflow.Substrate{
	planarflow.SubstrateBDD,
	planarflow.SubstratePrimalUndirected,
	planarflow.SubstratePrimalDirected,
	planarflow.SubstrateDualUndirected,
	planarflow.SubstrateDualDirected,
	planarflow.SubstrateDualFreeReversal,
	planarflow.SubstrateMinorAgg,
}

// familyQueries is one query per family, plus point queries at a few
// extra argument choices (stflow/stcut on an adjacent pair: common face).
func familyQueries(n, faces int) []planarflow.Query {
	return []planarflow.Query{
		planarflow.DistQuery(0, n-1),
		planarflow.DistQuery(1, n/2),
		planarflow.DirectedDistQuery(0, n-1),
		planarflow.DualDistQuery(0, faces-1),
		planarflow.DualSSSPQuery(0),
		planarflow.DualSSSPQuery(faces / 2),
		planarflow.MaxFlowQuery(0, n-1),
		planarflow.MinSTCutQuery(0, n-1),
		planarflow.STFlowQuery(0, 1, 0),
		planarflow.STFlowQuery(0, 1, 0.1),
		planarflow.STCutQuery(0, 1, 0),
		planarflow.GirthQuery(),
		planarflow.DirectedGirthQuery(),
		planarflow.GlobalMinCutQuery(),
	}
}

// goldenJSON executes the queries and returns each Answer marshalled —
// payload, witness sets and the Build/Query rounds split all included,
// so "equal" means bit-identical serving behavior.
func goldenJSON(t *testing.T, p *planarflow.PreparedGraph, queries []planarflow.Query) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		a, err := p.Do(nil, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Kind, err)
		}
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out
}

// TestSnapshotRestoreBitIdentical is the round-trip property test: for
// every query family, answers from a restored PreparedGraph are
// bit-identical (as golden JSON) to the original's warm answers — on a
// grid and on a low-diameter triangulation, with concurrent queries on
// the restored bundle to hold the property under -race.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	graphs := map[string]*planarflow.Graph{
		"grid":          planarflow.GridGraph(7, 7).WithRandomAttrs(11, 1, 9, 1, 16),
		"triangulation": planarflow.TriangulationGraph(60, 3).WithRandomAttrs(5, 1, 7, 1, 8),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			p, err := planarflow.Prepare(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Warm(nil, snapshotSubstrates...); err != nil {
				t.Fatal(err)
			}
			queries := familyQueries(g.N(), g.NumFaces())
			want := goldenJSON(t, p, queries)

			var snap bytes.Buffer
			if err := p.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			p2, err := planarflow.RestorePrepared(g, bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			// Everything arrived warm with its original accounting.
			st, st2 := p.Stats(), p2.Stats()
			if len(st2.Substrates) != len(st.Substrates) {
				t.Fatalf("restored %d substrates, want %d", len(st2.Substrates), len(st.Substrates))
			}
			if st2.BuildRounds != st.BuildRounds {
				t.Fatalf("restored build rounds %d, want %d", st2.BuildRounds, st.BuildRounds)
			}

			got := goldenJSON(t, p2, queries)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s diverged after restore:\n  want %s\n  got  %s",
						queries[i].Kind, want[i], got[i])
				}
			}
			// No query grew the restored bundle: nothing was rebuilt.
			if after := p2.Stats(); len(after.Substrates) != len(st.Substrates) {
				t.Fatalf("restored bundle grew to %d substrates (rebuild happened)", len(after.Substrates))
			}

			// Concurrent mixed-family queries on the restored bundle agree
			// with the golden answers (exercised under -race in CI).
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, q := range queries {
						a, err := p2.Do(nil, q)
						if err != nil {
							t.Errorf("worker %d %s: %v", w, q.Kind, err)
							return
						}
						data, _ := json.Marshal(a)
						if string(data) != want[i] {
							t.Errorf("worker %d %s diverged", w, q.Kind)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestSnapshotPartialWarm pins that a snapshot carries exactly what was
// built: restoring a bundle that only warmed the default serving set
// leaves the other substrates cold, and they rebuild on demand with
// answers that still match a fully-built reference.
func TestSnapshotPartialWarm(t *testing.T) {
	g := planarflow.GridGraph(6, 6).WithRandomAttrs(2, 1, 9, 1, 16)
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(nil); err != nil { // default set: BDD + undirected labelings
		t.Fatal(err)
	}
	built := len(p.Stats().Substrates)
	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	p2, err := planarflow.RestorePrepared(g, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p2.Stats().Substrates); got != built {
		t.Fatalf("restored %d substrates, want %d", got, built)
	}
	// A family whose substrate was not snapshotted still answers — by
	// building it now — and matches the original.
	wantGirth, err := p.Do(nil, planarflow.DirectedGirthQuery())
	if err != nil {
		t.Fatal(err)
	}
	gotGirth, err := p2.Do(nil, planarflow.DirectedGirthQuery())
	if err != nil {
		t.Fatal(err)
	}
	if wantGirth.Value != gotGirth.Value {
		t.Fatalf("directed girth %d != %d after partial restore", gotGirth.Value, wantGirth.Value)
	}
	if got := len(p2.Stats().Substrates); got != built+1 {
		t.Fatalf("expected exactly one on-demand build, have %d substrates (was %d)", got, built)
	}
}

// TestRestoreErrors pins the public sentinel mapping.
func TestRestoreErrors(t *testing.T) {
	g := planarflow.GridGraph(5, 5).WithRandomAttrs(3, 1, 9, 1, 16)
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong graph", func(t *testing.T) {
		other := planarflow.GridGraph(5, 5).WithRandomAttrs(4, 1, 9, 1, 16)
		_, err := planarflow.RestorePrepared(other, bytes.NewReader(snap.Bytes()))
		if !errors.Is(err, planarflow.ErrSnapshotMismatch) {
			t.Fatalf("got %v, want ErrSnapshotMismatch", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		_, err := planarflow.RestorePrepared(g, bytes.NewReader(snap.Bytes()[:snap.Len()/2]))
		if !errors.Is(err, planarflow.ErrBadSnapshot) {
			t.Fatalf("got %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		_, err := planarflow.RestorePrepared(g, bytes.NewReader([]byte("not a snapshot at all")))
		if !errors.Is(err, planarflow.ErrBadSnapshot) {
			t.Fatalf("got %v, want ErrBadSnapshot", err)
		}
	})
	t.Run("nil graph", func(t *testing.T) {
		_, err := planarflow.RestorePrepared(nil, bytes.NewReader(snap.Bytes()))
		if !errors.Is(err, planarflow.ErrNilGraph) {
			t.Fatalf("got %v, want ErrNilGraph", err)
		}
	})
}

// TestSnapshotDeterministicBytes pins public-level encode determinism:
// two snapshots of the same state are identical, and a snapshot of a
// restored bundle reproduces the original bytes.
func TestSnapshotDeterministicBytes(t *testing.T) {
	g := planarflow.GridGraph(6, 6).WithRandomAttrs(9, 1, 9, 1, 16)
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(nil, snapshotSubstrates...); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}
	p2, err := planarflow.RestorePrepared(g, bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := p2.Snapshot(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("snapshot of a restored bundle differs from the original")
	}
}

// TestSnapshotCarriesMinorAggPrices: the prices girth, stflow and stcut
// charge by are built by the first of them, not by Warm's default set, and
// travel in the snapshot — a restored bundle answers those families exactly
// as the warm one does (answer and Rounds, Build = 0) and reports the
// prices' original construction cost without having rebuilt them.
func TestSnapshotCarriesMinorAggPrices(t *testing.T) {
	g := planarflow.GridGraph(6, 7).WithRandomAttrs(13, 1, 9, 1, 16)
	p, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(nil); err != nil {
		t.Fatal(err)
	}
	defaultSet := len(p.Stats().Substrates)
	queries := []planarflow.Query{
		planarflow.STFlowQuery(0, 1, 0),
		planarflow.STFlowQuery(0, 1, 0.1),
		planarflow.STCutQuery(0, 1, 0),
		planarflow.GirthQuery(),
	}
	first, err := p.Do(nil, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Rounds.Build == 0 || len(p.Stats().Substrates) != defaultSet+1 {
		t.Fatalf("first stflow: Build=%d, %d substrates (default set %d): the prices were not built by it",
			first.Rounds.Build, len(p.Stats().Substrates), defaultSet)
	}
	want := goldenJSON(t, p, queries)

	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	p2, err := planarflow.RestorePrepared(g, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st, st2 := p.Stats(), p2.Stats(); !reflect.DeepEqual(st, st2) {
		t.Fatalf("restored stats %+v, want %+v", st2, st)
	}
	for i, got := range goldenJSON(t, p2, queries) {
		if got != want[i] {
			t.Fatalf("%s diverged after restore:\n  want %s\n  got  %s", queries[i].Kind, want[i], got)
		}
		var a planarflow.Answer
		if err := json.Unmarshal([]byte(got), &a); err != nil {
			t.Fatal(err)
		}
		if a.Rounds.Build != 0 || a.Rounds.Total == 0 {
			t.Fatalf("%s on the restored bundle: rounds %+v, want Build = 0", queries[i].Kind, a.Rounds)
		}
	}
	if p2.BuildRounds().Total != p.BuildRounds().Total {
		t.Fatalf("restored build rounds %d, want %d", p2.BuildRounds().Total, p.BuildRounds().Total)
	}
}
