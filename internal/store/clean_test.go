package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"syscall"
	"testing"
	"time"

	"planarflow"
)

// spilled returns a one-graph store whose bundle for "g" has answered a
// dist query, been persisted and been evicted: the file holds its
// substrates and the mark says so.
func spilled(t *testing.T) (*Store, int64) {
	t.Helper()
	s := New(Config{SpillDir: t.TempDir()})
	if _, err := s.RegisterSpec("g", gridSpec(3)); err != nil {
		t.Fatal(err)
	}
	want := warmDist(t, s, "g")
	if n, err := s.SnapshotResident("g"); err != nil || n != 1 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}
	s.EvictAll()
	return s, want
}

// corruptFile flips one byte in the middle of the file at path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkMarks asserts the disk tier's invariant once every writer is done:
// each entry's mark is exactly the key set decodable from its spill file
// (nothing when there is no file).
func checkMarks(t *testing.T, s *Store) {
	t.Helper()
	s.FlushSpills()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, e := range s.ents {
		want := ""
		if f, err := os.Open(s.spillPath(id)); err == nil {
			pg, err := planarflow.RestorePrepared(e.gr, f)
			f.Close()
			if err != nil {
				t.Errorf("%s: spill file does not decode: %v", id, err)
				continue
			}
			want = keySet(pg)
		}
		if e.fileKeys != want {
			t.Errorf("%s: mark %q, file holds %q", id, e.fileKeys, want)
		}
	}
}

// TestCleanEvictionWritesNothing: a bundle restored from its spill file
// that built nothing since is evicted without touching the file, the file
// is byte for byte what the evicted bundle would have encoded, and the
// next miss restores from it.
func TestCleanEvictionWritesNothing(t *testing.T) {
	s, want := spilled(t)
	path := s.spillPath("g")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	writes0 := s.Snapshot().SnapshotWrites

	var fresh bytes.Buffer // what the restored bundle encodes to, taken while it is pinned
	err = s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, hit bool) error {
		if hit {
			t.Error("restore counted as a hit")
		}
		if d, err := dist(pg, 0, pg.Graph().N()-1); err != nil || d != want {
			t.Errorf("restored dist %d, %v; want %d", d, err, want)
		}
		return pg.Snapshot(&fresh)
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EvictAll()

	st := s.Snapshot()
	if st.SnapshotWrites != writes0 {
		t.Fatalf("clean eviction wrote: snapshot_writes %d -> %d", writes0, st.SnapshotWrites)
	}
	if st.SpillsElided != st.Evictions || st.Evictions != 2 || st.PerGraph[0].SpillsElided != 2 {
		t.Fatalf("spills_elided = %d (per graph %d), evictions = %d; want 2 of 2",
			st.SpillsElided, st.PerGraph[0].SpillsElided, st.Evictions)
	}
	after, err := os.Stat(path)
	if err != nil || !os.SameFile(before, after) {
		t.Fatalf("spill file replaced (err %v)", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, fresh.Bytes()) {
		t.Fatalf("file (%d B) differs from a fresh snapshot of the evicted bundle (%d B)", len(onDisk), fresh.Len())
	}

	if got := warmDist(t, s, "g"); got != want {
		t.Fatalf("dist after second restore %d, want %d", got, want)
	}
	if st2 := s.Snapshot(); st2.SnapshotRestores != 2 || st2.Builds != st.Builds {
		t.Fatalf("restores = %d, builds %d -> %d; want 2 restores, builds unchanged",
			st2.SnapshotRestores, st.Builds, st2.Builds)
	}
	checkMarks(t, s)

	// Prices built after the spill: the first stflow on the restored bundle
	// builds the minor-aggregation prices, which the file does not hold, so
	// this eviction writes — once. The bundle restored from that file answers
	// stflow with nothing to build and leaves clean again.
	stflow := func(wantBuild bool) {
		t.Helper()
		err := s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, _ bool) error {
			a, err := pg.Do(nil, planarflow.STFlowQuery(0, 1, 0))
			if err == nil && (a.Rounds.Build > 0) != wantBuild {
				t.Errorf("stflow Build = %d, want built = %v", a.Rounds.Build, wantBuild)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stflow(true)
	s.EvictAll()
	s.FlushSpills()
	if st3 := s.Snapshot(); st3.SnapshotWrites != writes0+1 || st3.SpillsElided != st.SpillsElided {
		t.Fatalf("eviction after the prices were built: writes %d -> %d, elided %d -> %d; want one write, none elided",
			writes0, st3.SnapshotWrites, st.SpillsElided, st3.SpillsElided)
	}
	stflow(false)
	s.EvictAll()
	s.FlushSpills()
	if st4 := s.Snapshot(); st4.SnapshotWrites != writes0+1 || st4.SpillsElided != st.SpillsElided+1 {
		t.Fatalf("eviction of the bundle restored with its prices: writes = %d, elided = %d; want %d, %d",
			st4.SnapshotWrites, st4.SpillsElided, writes0+1, st.SpillsElided+1)
	}
	checkMarks(t, s)
}

// TestMaxFlowLeavesRestoredBundleClean: exact max-flow and min st-cut on
// a restored bundle build only the graph's max-flow λ = 0 state, a cache
// that no snapshot carries and no key set names: the bundle still encodes
// to the file's bytes, its eviction is elided, and the store counts no
// build.
func TestMaxFlowLeavesRestoredBundleClean(t *testing.T) {
	s, _ := spilled(t)
	path := s.spillPath("g")
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st0 := s.Snapshot()
	var fresh bytes.Buffer
	err = s.With(context.Background(), "g", func(pg *planarflow.PreparedGraph, hit bool) error {
		if hit {
			t.Error("restore counted as a hit")
		}
		n := pg.Graph().N()
		for _, q := range []planarflow.Query{planarflow.MaxFlowQuery(0, n-1), planarflow.MinSTCutQuery(0, n-1)} {
			a, err := pg.Do(nil, q)
			if err != nil {
				return err
			}
			if a.Rounds.Build != 0 {
				t.Errorf("%s on the restored bundle: Build = %d", q.Kind, a.Rounds.Build)
			}
		}
		return pg.Snapshot(&fresh)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), onDisk) {
		t.Fatalf("the bundle encodes to %d B, its file holds %d B", fresh.Len(), len(onDisk))
	}
	s.EvictAll()
	st := s.Snapshot()
	if st.SnapshotWrites != st0.SnapshotWrites || st.SpillsElided != st0.SpillsElided+1 || st.Builds != st0.Builds {
		t.Fatalf("eviction after maxflow: writes %d -> %d, elided %d -> %d, builds %d -> %d; want no write, one elided, no build",
			st0.SnapshotWrites, st.SnapshotWrites, st0.SpillsElided, st.SpillsElided, st0.Builds, st.Builds)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, onDisk) {
		t.Fatalf("spill file changed (err %v)", err)
	}
	checkMarks(t, s)
}

// TestDirtyEvictionSpillsOnce: a restored bundle that builds one more
// substrate is written on its way out — once; the bundle restored from
// that file is clean again.
func TestDirtyEvictionSpillsOnce(t *testing.T) {
	s, want := spilled(t)
	ctx := context.Background()
	if err := s.Warm(ctx, "g", planarflow.SubstrateDualFreeReversal); err != nil {
		t.Fatal(err)
	}
	st0 := s.Snapshot()
	if st0.SnapshotRestores != 1 || st0.SnapshotWrites != 1 {
		t.Fatalf("restores = %d, writes = %d before the dirty eviction; want 1, 1", st0.SnapshotRestores, st0.SnapshotWrites)
	}
	s.EvictAll()
	if st := s.Snapshot(); st.SnapshotWrites != 2 || st.SpillsElided != st0.SpillsElided {
		t.Fatalf("dirty eviction: writes = %d, elided %d -> %d; want 2, unchanged", st.SnapshotWrites, st0.SpillsElided, st.SpillsElided)
	}
	checkMarks(t, s)

	// Restored with the extra substrate warm: Warm builds nothing, and
	// this eviction is clean.
	if err := s.Warm(ctx, "g", planarflow.SubstrateDualFreeReversal); err != nil {
		t.Fatal(err)
	}
	if got := warmDist(t, s, "g"); got != want {
		t.Fatalf("dist %d, want %d", got, want)
	}
	s.EvictAll()
	st := s.Snapshot()
	if st.SnapshotWrites != 2 || st.SpillsElided != st0.SpillsElided+1 || st.Builds != st0.Builds {
		t.Fatalf("second eviction: writes = %d, elided = %d, builds %d -> %d; want 2, %d, unchanged",
			st.SnapshotWrites, st.SpillsElided, st0.Builds, st.Builds, st0.SpillsElided+1)
	}
}

// TestLineageResetEvictionWrites: a bundle that did not come out of the spill file —
// the file was lost or rejected and the miss rebuilt cold, or a peer's
// bytes were installed — is written when it is evicted.
func TestLineageResetEvictionWrites(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"deleted": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt": corruptFile,
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			s, want := spilled(t)
			st0 := s.Snapshot()
			hurt(t, s.spillPath("g"))
			if got := warmDist(t, s, "g"); got != want {
				t.Fatalf("rebuilt dist %d, want %d", got, want)
			}
			if st := s.Snapshot(); st.SnapshotRestores != 0 || st.Builds != st0.Builds+2 { // bdd + primal, again
				t.Fatalf("restores = %d, builds %d -> %d; want a cold rebuild", st.SnapshotRestores, st0.Builds, st.Builds)
			}
			s.EvictAll()
			if st := s.Snapshot(); st.SnapshotWrites != st0.SnapshotWrites+1 {
				t.Fatalf("rebuilt bundle's eviction: writes %d -> %d, want one more", st0.SnapshotWrites, st.SnapshotWrites)
			}
			checkMarks(t, s)
			if got := warmDist(t, s, "g"); got != want {
				t.Fatalf("restored dist %d, want %d", got, want)
			}
			if st := s.Snapshot(); st.SnapshotRestores != 1 {
				t.Fatalf("restores = %d after the rewrite, want 1", st.SnapshotRestores)
			}
		})
	}
	t.Run("installed", func(t *testing.T) {
		s, _ := spilled(t)
		peer, err := os.ReadFile(s.spillPath("g")) // stands in for bytes fetched off a replica
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.InstallSnapshot("g", peer); err != nil || !ok {
			t.Fatalf("InstallSnapshot = %v, %v", ok, err)
		}
		writes0 := s.Snapshot().SnapshotWrites
		s.EvictAll()
		if st := s.Snapshot(); st.SnapshotWrites != writes0+1 {
			t.Fatalf("installed bundle's eviction: writes %d -> %d, want one more", writes0, st.SnapshotWrites)
		}
		checkMarks(t, s)
	})
}

// blockRestore replaces id's spill file with a FIFO, so the next restore
// of id blocks inside the loader (file lock held, store lock released)
// until feed writes the saved bytes through. started returns once a
// loader has the FIFO open. Skips where FIFOs are unavailable.
func blockRestore(t *testing.T, s *Store, id string) (started, feed func()) {
	t.Helper()
	path := s.spillPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	var w *os.File
	started = func() {
		t.Helper()
		// Opening a FIFO for writing returns when a reader has it open.
		if w, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
			t.Fatal(err)
		}
	}
	feed = func() {
		t.Helper()
		if _, err := w.Write(data); err != nil {
			t.Error(err)
		}
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}
	return started, feed
}

// awaitAcquires waits until n more acquires than base have taken the
// store lock and let go of it again (each observes the queue-wait
// histogram first thing under the lock): by then each has seen whether
// its bundle was resident.
func awaitAcquires(t *testing.T, s *Store, base uint64, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for mQueueWait.Snapshot().Count < base+uint64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d acquires never arrived", n)
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	s.mu.Unlock() // empty on purpose: orders us after the last observer's critical section
}

// TestHitBehindRestore: while graph a's restore is stuck reading its
// file, a hit on resident graph b goes straight through, and a second
// caller for a joins the load in flight instead of starting its own.
func TestHitBehindRestore(t *testing.T) {
	s := New(Config{SpillDir: t.TempDir()})
	for id, seed := range map[string]int64{"a": 1, "b": 2} {
		if _, err := s.RegisterSpec(id, gridSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	wantA := warmDist(t, s, "a")
	if _, err := s.SnapshotResident("a"); err != nil {
		t.Fatal(err)
	}
	s.EvictAll()
	wantB := warmDist(t, s, "b") // resident from here on
	started, feed := blockRestore(t, s, "a")
	st0 := s.Snapshot()

	ctx := context.Background()
	n := s.Graph("a").N()
	got := make(chan int64, 2) // both callers on a
	callA := func() {
		a, _, err := s.Do(ctx, "a", planarflow.DistQuery(0, n-1))
		if err != nil {
			t.Error(err)
			got <- -1
			return
		}
		got <- a.Value
	}
	base := mQueueWait.Snapshot().Count
	go callA()
	started()
	go callA()
	awaitAcquires(t, s, base, 2)

	hit := make(chan error, 1)
	go func() {
		a, wasHit, err := s.Do(ctx, "b", planarflow.DistQuery(0, n-1))
		if err == nil && (!wasHit || a.Value != wantB) {
			err = errors.New("b: not a hit, or a wrong answer")
		}
		hit <- err
	}()
	select {
	case err := <-hit:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Error("hit on b is queued behind a's restore")
	}
	select {
	case v := <-got:
		t.Errorf("a caller on a returned %d before its file could be read", v)
	default:
	}

	feed()
	for i := 0; i < 2; i++ {
		if v := <-got; v != wantA {
			t.Errorf("a: dist %d, want %d", v, wantA)
		}
	}
	st := s.Snapshot()
	if st.SnapshotRestores != st0.SnapshotRestores+1 || st.Misses != st0.Misses+2 || st.Builds != st0.Builds {
		t.Fatalf("restores %d -> %d, misses %d -> %d, builds %d -> %d; want +1, +2, +0",
			st0.SnapshotRestores, st.SnapshotRestores, st0.Misses, st.Misses, st0.Builds, st.Builds)
	}
}
