package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"planarflow"
	"planarflow/internal/snapshot"
)

// warmDist runs a dist query so the primal labeling builds (or restores).
func warmDist(t testing.TB, s *Store, id string) int64 {
	t.Helper()
	g := s.Graph(id)
	a, _, err := s.Do(context.Background(), id, planarflow.DistQuery(0, g.N()-1))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return a.Value
}

// TestEvictionSpillsAndMissRestores is the disk tier's core loop: an
// eviction demotes the bundle to a snapshot file, and the next miss
// restores it from disk — counted as a snapshot restore, not a build —
// with identical answers.
func TestEvictionSpillsAndMissRestores(t *testing.T) {
	dir := t.TempDir()
	// Budget fits one bundle: the second graph's build evicts the first.
	unit := distFootprint(t)
	s := New(Config{MaxBytes: unit + unit/2, SpillDir: dir})
	t.Cleanup(s.FlushSpills) // async spills must land before TempDir cleanup
	for _, id := range []string{"a", "b"} {
		if _, err := s.RegisterSpec(id, gridSpec(map[string]int64{"a": 1, "b": 2}[id])); err != nil {
			t.Fatal(err)
		}
	}
	wantA := warmDist(t, s, "a")
	builds0 := s.Snapshot().Builds
	warmDist(t, s, "b") // evicts a → spills its snapshot
	s.FlushSpills()     // eviction spills are async off the query path

	st := s.Snapshot()
	if st.Evictions == 0 {
		t.Fatal("no eviction happened; budget mis-sized")
	}
	if st.SnapshotWrites == 0 {
		t.Fatal("eviction did not spill a snapshot")
	}
	if _, err := os.Stat(s.spillPath("a")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	// Miss on a: must restore from disk, answer identically, build nothing.
	gotA := warmDist(t, s, "a")
	if gotA != wantA {
		t.Fatalf("restored dist %d, want %d", gotA, wantA)
	}
	st = s.Snapshot()
	if st.SnapshotRestores != 1 {
		t.Fatalf("snapshot_restores = %d, want 1", st.SnapshotRestores)
	}
	if st.Builds != builds0+2 { // only b's BDD+labeling, never a's again
		t.Fatalf("builds = %d, want %d (restore must not rebuild)", st.Builds, builds0+2)
	}
	for _, pg := range st.PerGraph {
		if pg.ID == "a" && pg.SnapshotRestores != 1 {
			t.Fatalf("per-graph snapshot_restores = %d, want 1", pg.SnapshotRestores)
		}
	}
}

// TestCorruptSnapshotFallsBackToRebuild: a damaged spill file is counted,
// deleted and the miss rebuilds — wrong answers are impossible, a dead
// file is not retried.
func TestCorruptSnapshotFallsBackToRebuild(t *testing.T) {
	s, want := spilled(t) // evicted clean: the file SnapshotResident wrote stays as it is
	path := s.spillPath("g")
	corruptFile(t, path)

	got := warmDist(t, s, "g")
	if got != want {
		t.Fatalf("rebuilt dist %d, want %d", got, want)
	}
	st := s.Snapshot()
	if st.SnapshotErrors == 0 {
		t.Fatal("corrupt snapshot not counted")
	}
	if st.SnapshotRestores != 0 {
		t.Fatal("corrupt snapshot must not count as a restore")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt snapshot file not deleted")
	}
}

// TestMixedVersionSpills: the disk tier across the snapshot format's
// version change. testdata/grid4x5-v1.pfsnap is a spill file the
// version-1 encoder left: the bundle of this 4×5 grid after the queries
// below. Under this build it restores on a miss, builds nothing, and
// answers bit-identically to a bundle built here. The other way round,
// a reader given a file of a version newer than its own — what a
// version-1 binary sees in a version-2 file — fails with ErrVersion, and
// the store counts it, deletes the file and rebuilds.
func TestMixedVersionSpills(t *testing.T) {
	spec := GraphSpec{Kind: "grid", Rows: 4, Cols: 5, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
	v1, err := os.ReadFile("testdata/grid4x5-v1.pfsnap")
	if err != nil {
		t.Fatal(err)
	}
	if v1[6] != 1 {
		t.Fatalf("fixture is version %d", v1[6])
	}
	dir := t.TempDir()
	s := New(Config{SpillDir: dir})
	t.Cleanup(s.FlushSpills)
	g, err := s.RegisterSpec("g", spec)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	queries := []planarflow.Query{
		planarflow.DistQuery(0, n-1), planarflow.DualSSSPQuery(0), planarflow.MaxFlowQuery(0, n-1),
		planarflow.MinSTCutQuery(0, n-1), planarflow.GirthQuery(), planarflow.GlobalMinCutQuery(),
	}
	// want holds a built bundle's answers once its substrates are warm, so
	// they charge no build, as a restored bundle's do not.
	ref, err := planarflow.Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*planarflow.Answer, len(queries))
	for i, q := range queries {
		if _, err := ref.Do(nil, q); err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.Do(nil, q); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store) {
		t.Helper()
		for i, q := range queries {
			got, _, err := s.Do(context.Background(), "g", q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: got %+v, want %+v", q.Kind, got, want[i])
			}
		}
	}

	path := s.spillPath("g")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	check(s)
	if st := s.Snapshot(); st.SnapshotRestores != 1 || st.Builds != 0 || st.SnapshotErrors != 0 {
		t.Fatalf("version-1 spill: %d restores, %d builds, %d errors; want 1, 0, 0", st.SnapshotRestores, st.Builds, st.SnapshotErrors)
	}

	// Written back, the bundle is version 2. Its version byte one past this
	// build's is what an older build sees.
	if n, err := s.SnapshotResident("g"); err != nil || n != 1 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}
	newer, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if newer[6] != snapshot.Version {
		t.Fatalf("store wrote version %d, want %d", newer[6], snapshot.Version)
	}
	newer[6]++
	if _, err := planarflow.RestorePrepared(g, bytes.NewReader(newer)); !errors.Is(err, planarflow.ErrBadSnapshot) ||
		!strings.Contains(err.Error(), snapshot.ErrVersion.Error()) {
		t.Fatalf("newer version: got %v, want ErrBadSnapshot from ErrVersion", err)
	}
	if err := os.WriteFile(path, newer, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{SpillDir: dir})
	t.Cleanup(s2.FlushSpills)
	if _, err := s2.RegisterSpec("g", spec); err != nil {
		t.Fatal(err)
	}
	if ok, err := s2.TryRestore("g"); ok || err != nil {
		t.Fatalf("TryRestore of a newer version = %v, %v; want false, nil", ok, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("newer-version spill file not deleted")
	}
	// The rebuilt bundle answers as the built one, its first queries
	// charging their builds.
	for _, q := range queries {
		if _, _, err := s2.Do(context.Background(), "g", q); err != nil {
			t.Fatal(err)
		}
	}
	check(s2)
	if st := s2.Snapshot(); st.SnapshotErrors != 1 || st.SnapshotRestores != 0 || st.Builds == 0 {
		t.Fatalf("newer-version spill: %d errors, %d restores, %d builds; want 1, 0, > 0", st.SnapshotErrors, st.SnapshotRestores, st.Builds)
	}
}

// TestTryRestoreWarmBoot: the boot path — a fresh store over an existing
// spill directory restores registered specs without serving a query.
func TestTryRestoreWarmBoot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SpillDir: dir}
	s1 := New(cfg)
	if _, err := s1.RegisterSpec("g", gridSpec(4)); err != nil {
		t.Fatal(err)
	}
	want := warmDist(t, s1, "g")
	if n, err := s1.SnapshotResident(); err != nil || n != 1 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}

	s2 := New(cfg)
	if _, err := s2.RegisterSpec("g", gridSpec(4)); err != nil {
		t.Fatal(err)
	}
	ok, err := s2.TryRestore("g")
	if err != nil || !ok {
		t.Fatalf("TryRestore = %v, %v", ok, err)
	}
	st := s2.Snapshot()
	if st.Resident != 1 || st.Bytes == 0 {
		t.Fatalf("restored bundle not accounted: resident=%d bytes=%d", st.Resident, st.Bytes)
	}
	if got := warmDist(t, s2, "g"); got != want {
		t.Fatalf("dist after warm boot %d, want %d", got, want)
	}
	if st := s2.Snapshot(); st.Builds != 0 {
		t.Fatalf("warm boot rebuilt %d substrates", st.Builds)
	}
	// Idempotent: already resident → false, no error.
	if ok, err := s2.TryRestore("g"); ok || err != nil {
		t.Fatalf("second TryRestore = %v, %v", ok, err)
	}
	// Unknown id errors.
	if _, err := s2.TryRestore("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("got %v, want ErrUnknownGraph", err)
	}
}

// TestCanceledRestore: a restore whose context has ended stops in the
// relabelling and returns the context's error — on the disk tier and for
// peer bytes — counting no snapshot error and keeping the file and its
// mark, so a live request then restores it with nothing built.
func TestCanceledRestore(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{SpillDir: dir})
	if _, err := s1.RegisterSpec("g", gridSpec(4)); err != nil {
		t.Fatal(err)
	}
	want := warmDist(t, s1, "g")
	if n, err := s1.SnapshotResident(); err != nil || n != 1 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}
	peer, err := os.ReadFile(s1.spillPath("g"))
	if err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{SpillDir: dir})
	t.Cleanup(s2.FlushSpills)
	if _, err := s2.RegisterSpec("g", gridSpec(4)); err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	s2.ents["g"].fileKeys = "mark"
	s2.mu.Unlock()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, err := s2.TryRestoreContext(canceled, "g"); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("TryRestoreContext(canceled) = %v, %v; want false, context.Canceled", ok, err)
	}
	if ok, err := s2.InstallSnapshot(canceled, "g", peer); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("InstallSnapshot(canceled) = %v, %v; want false, context.Canceled", ok, err)
	}
	s2.mu.Lock()
	mark := s2.ents["g"].fileKeys
	s2.mu.Unlock()
	if st := s2.Snapshot(); st.SnapshotErrors != 0 || st.SnapshotRestores != 0 || st.Resident != 0 || mark != "mark" {
		t.Fatalf("after canceled restores: %d errors, %d restores, %d resident, mark %q; want 0, 0, 0, unchanged",
			st.SnapshotErrors, st.SnapshotRestores, st.Resident, mark)
	}
	if _, err := os.Stat(s2.spillPath("g")); err != nil {
		t.Fatalf("spill file gone after a canceled restore: %v", err)
	}
	if got := warmDist(t, s2, "g"); got != want {
		t.Fatalf("dist after restore %d, want %d", got, want)
	}
	if st := s2.Snapshot(); st.SnapshotRestores != 1 || st.Builds != 0 || st.SnapshotErrors != 0 {
		t.Fatalf("live restore: %d restores, %d builds, %d errors; want 1, 0, 0", st.SnapshotRestores, st.Builds, st.SnapshotErrors)
	}
}

// TestSnapshotResidentErrors pins the ops-valve edge cases.
func TestSnapshotResidentErrors(t *testing.T) {
	s := New(Config{})
	if _, err := s.SnapshotResident(); !errors.Is(err, ErrSpillDisabled) {
		t.Fatalf("got %v, want ErrSpillDisabled", err)
	}
	s = New(Config{SpillDir: t.TempDir()})
	if _, err := s.RegisterSpec("g", gridSpec(5)); err != nil {
		t.Fatal(err)
	}
	// Registered but not resident: skipped, not an error.
	if n, err := s.SnapshotResident(); err != nil || n != 0 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}
	if _, err := s.SnapshotResident("missing"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("got %v, want ErrUnknownGraph", err)
	}
}

// TestLastAccessTimestamp: the per-bundle last-access satellite.
func TestLastAccessTimestamp(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterSpec("g", gridSpec(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("idle", gridSpec(7)); err != nil {
		t.Fatal(err)
	}
	before := time.Now().UnixMilli()
	warmDist(t, s, "g")
	after := time.Now().UnixMilli()
	for _, pg := range s.Snapshot().PerGraph {
		switch pg.ID {
		case "g":
			if pg.LastAccessUnixMS < before || pg.LastAccessUnixMS > after {
				t.Fatalf("last access %d outside [%d, %d]", pg.LastAccessUnixMS, before, after)
			}
		case "idle":
			if pg.LastAccessUnixMS != 0 {
				t.Fatalf("idle graph has last access %d", pg.LastAccessUnixMS)
			}
		}
	}
}

// TestConcurrentSpillRestore hammers a budget-constrained spill-enabled
// store from many goroutines (meaningful under -race): evictions spill
// while misses restore, and every answer stays correct.
func TestConcurrentSpillRestore(t *testing.T) {
	dir := t.TempDir()
	unit := distFootprint(t)
	s := New(Config{MaxBytes: unit + unit/2, SpillDir: dir})
	t.Cleanup(s.FlushSpills) // async spills must land before TempDir cleanup
	ids := []string{"a", "b", "c"}
	want := map[string]int64{}
	for i, id := range ids {
		g, err := s.RegisterSpec(id, gridSpec(int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := planarflow.Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist(p, 0, g.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = d
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := ids[(w+i)%len(ids)]
				g := s.Graph(id)
				a, _, err := s.Do(context.Background(), id, planarflow.DistQuery(0, g.N()-1))
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				if a.Value != want[id] {
					t.Errorf("%s: dist %d, want %d", id, a.Value, want[id])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkMarks(t, s) // flushes the spills first
	st := s.Snapshot()
	if st.SnapshotWrites == 0 {
		t.Fatalf("expected spills under churn, got writes=%d", st.SnapshotWrites)
	}
	// Deterministic restore pass: with every spill flushed, dropping the
	// residents and touching each graph must restore from disk.
	s.EvictAll()
	restores0 := st.SnapshotRestores
	for _, id := range ids {
		if got := warmDist(t, s, id); got != want[id] {
			t.Fatalf("%s after final restore: dist %d, want %d", id, got, want[id])
		}
	}
	if st := s.Snapshot(); st.SnapshotRestores <= restores0 {
		t.Fatalf("final pass restored nothing (restores %d -> %d)", restores0, st.SnapshotRestores)
	}
	checkMarks(t, s)
}

// BenchmarkMissRestoreClean is the churn miss in isolation: two warmed
// graphs under a budget for one, queried alternately, so every operation
// restores one bundle from its spill file and evicts the other. Both
// bundles are clean after set-up, so writes/op should read 0.
func BenchmarkMissRestoreClean(b *testing.B) {
	unit := distFootprint(b)
	s := New(Config{MaxBytes: unit + unit/2, SpillDir: b.TempDir()})
	b.Cleanup(s.FlushSpills)
	ids := []string{"a", "b"}
	for i, id := range ids {
		if _, err := s.RegisterSpec(id, gridSpec(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "a"} { // each built once, spilled dirty once
		warmDist(b, s, id)
		s.FlushSpills()
	}
	st0 := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmDist(b, s, ids[(i+1)%2])
	}
	b.StopTimer()
	s.FlushSpills()
	st := s.Snapshot()
	if got := st.SnapshotRestores - st0.SnapshotRestores; got != int64(b.N) || st.Builds != st0.Builds {
		b.Fatalf("%d ops: %d restores, builds %d -> %d; every op must be a restore", b.N, got, st0.Builds, st.Builds)
	}
	b.ReportMetric(float64(st.SnapshotWrites-st0.SnapshotWrites)/float64(b.N), "writes/op")
}

// checkAccounting holds the store's accounting to the resident bundles'
// own Stats: per entry bytes and substrate count, and the store-wide
// byte total as their sum.
func checkAccounting(t *testing.T, when string, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for id, e := range s.ents {
		if e.pg == nil {
			continue
		}
		st := e.pg.Stats()
		if e.bytes != st.Bytes || e.substrates != len(st.Substrates) || e.rounds != st.BuildRounds {
			t.Fatalf("%s: %s accounted (%d B, %d substrates, %d rounds), Stats (%d B, %d, %d)",
				when, id, e.bytes, e.substrates, e.rounds, st.Bytes, len(st.Substrates), st.BuildRounds)
		}
		sum += st.Bytes
	}
	if s.bytes != sum {
		t.Fatalf("%s: store accounts %d B, resident bundles hold %d B", when, s.bytes, sum)
	}
}

// watchBundle sets a finalizer on id's resident bundle and returns the
// channel it closes. Only the store may keep the bundle alive afterwards.
func watchBundle(t *testing.T, s *Store, id string) <-chan struct{} {
	t.Helper()
	freed := make(chan struct{})
	s.mu.Lock()
	pg := s.ents[id].pg
	s.mu.Unlock()
	if pg == nil {
		t.Fatalf("%s is not resident", id)
	}
	runtime.SetFinalizer(pg, func(*planarflow.PreparedGraph) { close(freed) })
	return freed
}

// TestReleaseAccountingExact churns more graphs than the budget holds,
// over the disk tier, with a second query family growing bundles on a
// hit: after every query the store's accounting equals what the
// resident bundles' Stats report, restores included. An evicted,
// unpinned bundle must then be collectable — the store keeps no
// reference to a bundle beyond the entry's own.
func TestReleaseAccountingExact(t *testing.T) {
	unit := distFootprint(t)
	s := New(Config{MaxBytes: 3*unit + unit/2, SpillDir: t.TempDir()})
	t.Cleanup(s.FlushSpills)
	const graphs = 8
	for i := 0; i < graphs; i++ {
		if _, err := s.RegisterSpec(fmt.Sprint("g", i), gridSpec(int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for i := 0; i < graphs; i++ {
			id := fmt.Sprint("g", i)
			warmDist(t, s, id)
			checkAccounting(t, fmt.Sprintf("round %d, dist on %s", round, id), s)
			if i%3 == round {
				if _, _, err := s.Do(ctx, id, planarflow.DualDistQuery(0, 1)); err != nil {
					t.Fatal(err)
				}
				checkAccounting(t, fmt.Sprintf("round %d, dualdist on %s", round, id), s)
			}
		}
		s.FlushSpills()
	}
	if st := s.Snapshot(); st.Evictions == 0 || st.SnapshotRestores == 0 {
		t.Fatalf("churn neither evicted nor restored: %+v", st)
	}

	freed := watchBundle(t, s, "g7")
	for i := 0; i < graphs-1; i++ { // g7 falls off the LRU tail
		warmDist(t, s, fmt.Sprint("g", i))
	}
	s.FlushSpills() // a spill job holds the bundle until it is written
	s.mu.Lock()
	evicted := s.ents["g7"].pg == nil
	s.mu.Unlock()
	if !evicted {
		t.Fatal("g7 is still resident; budget mis-sized")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an evicted, unpinned bundle was never collected: something still references it")
}
