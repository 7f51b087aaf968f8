package store

import (
	"context"
	"sync"
	"testing"

	"planarflow"
)

// TestRestoreEvictRace hammers TryRestore on one graph while queries on
// a sibling keep the LRU demoting it under a one-bundle budget — the
// exact interleaving the fleet creates when a standby restore races
// live traffic. Run under -race this holds the store's promise that
// restore and evict serialize on the entry: no torn bundle, no double
// accounting, and the answer stays right throughout.
func TestRestoreEvictRace(t *testing.T) {
	dir := t.TempDir()
	unit := distFootprint(t)
	s := New(Config{MaxBytes: unit + unit/2, SpillDir: dir})
	t.Cleanup(s.FlushSpills)
	for _, id := range []string{"a", "b"} {
		seed := map[string]int64{"a": 1, "b": 2}[id]
		if _, err := s.RegisterSpec(id, gridSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	wantA := warmDist(t, s, "a")
	warmDist(t, s, "b") // evicts a: its snapshot is on disk
	s.FlushSpills()

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Restorer: promote a's snapshot back into memory, over and over.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.TryRestore("a"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Evictor: alternate queries on b and a; every b query under the
	// one-bundle budget demotes a (and vice versa), so the restorer's
	// promotions race LRU demotions of the same entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		g := s.Graph("a")
		for i := 0; i < 100; i++ {
			id := "a"
			if i%2 == 0 {
				id = "b"
			}
			a, _, err := s.Do(ctx, id, planarflow.DistQuery(0, g.N()-1))
			if err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			if id == "a" && a.Value != wantA {
				t.Errorf("mid-race answer %d != %d", a.Value, wantA)
				return
			}
		}
	}()

	wg.Wait()
	checkMarks(t, s) // flushes: every racing rename left mark and file agreeing
	if got := warmDist(t, s, "a"); got != wantA {
		t.Fatalf("post-race answer %d != %d", got, wantA)
	}
	st := s.Snapshot()
	if st.Resident > 2 || st.Bytes > s.cfg.MaxBytes+unit {
		t.Fatalf("accounting drifted: %+v", st)
	}
}
