package ledger

import (
	"sync"
	"testing"
)

func TestTotalsAndSplit(t *testing.T) {
	l := New()
	l.Measure("bfs", 10)
	l.Charge("broadcast", 25)
	l.Measure("bfs", 5)
	if l.Total() != 40 {
		t.Fatalf("total=%d want 40", l.Total())
	}
	m, c := l.Split()
	if m != 15 || c != 25 {
		t.Fatalf("split=(%d,%d) want (15,25)", m, c)
	}
}

func TestByPhaseAggregates(t *testing.T) {
	l := New()
	l.Measure("x", 1)
	l.Charge("x", 2)
	l.Charge("y", 3)
	by := l.ByPhase()
	if by["x"] != 3 || by["y"] != 3 {
		t.Fatalf("byPhase=%v", by)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Measure("p", 7)
	b.Charge("q", 9)
	a.Merge(b)
	if a.Total() != 16 {
		t.Fatalf("merged total=%d", a.Total())
	}
	if len(a.Entries()) != 2 {
		t.Fatalf("entries=%d", len(a.Entries()))
	}
}

func TestNegativeClamped(t *testing.T) {
	l := New()
	l.Charge("neg", -5)
	if l.Total() != 0 {
		t.Fatalf("negative rounds not clamped: %d", l.Total())
	}
}

func TestConcurrentUse(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Measure("m", 1)
				l.Charge("c", 1)
			}
		}()
	}
	wg.Wait()
	if l.Total() != 1600 {
		t.Fatalf("total=%d want 1600", l.Total())
	}
}

func TestBuildSplitAndMergeAs(t *testing.T) {
	build := New()
	build.Charge("bdd/construct-level", 30)
	build.Measure("label/level", 12)

	q := New()
	q.Charge("sssp/broadcast", 8)
	q.MergeAs(build, Build)

	b, qr := q.BuildSplit()
	if b != 42 || qr != 8 {
		t.Fatalf("build/query=(%d,%d) want (42,8)", b, qr)
	}
	// Kind is preserved through a scoped merge.
	m, c := q.Split()
	if m != 12 || c != 38 {
		t.Fatalf("split=(%d,%d) want (12,38)", m, c)
	}
	// A plain Merge preserves the scope already on the entries.
	q2 := New()
	q2.Merge(q)
	b2, qr2 := q2.BuildSplit()
	if b2 != 42 || qr2 != 8 {
		t.Fatalf("merged build/query=(%d,%d) want (42,8)", b2, qr2)
	}
	if Build.String() != "build" || Query.String() != "query" {
		t.Fatal("scope strings")
	}
}

func TestDefaultScopeIsQuery(t *testing.T) {
	l := New()
	l.Charge("x", 5)
	l.Measure("y", 6)
	b, q := l.BuildSplit()
	if b != 0 || q != 11 {
		t.Fatalf("build/query=(%d,%d) want (0,11)", b, q)
	}
	for _, e := range l.Entries() {
		if e.Scope != Query {
			t.Fatalf("entry %v not query-scoped by default", e)
		}
	}
}

func TestHelpers(t *testing.T) {
	if PipelinedBroadcastRounds(10, 5) != 15 {
		t.Fatal("pipelined broadcast formula")
	}
	if Measured.String() != "measured" || Charged.String() != "charged" || Kind(0).String() != "unknown" {
		t.Fatal("kind strings")
	}
}

// TestMergeKeepsEntries: every merge appends other's entries in order with
// their phases, rounds and kinds — MergeAs rewriting only the scope,
// MergeScoped keeping only the scope asked for — merging a ledger into itself
// doubles it without deadlocking, and merges racing appends to both sides
// lose nothing (run it under -race).
func TestMergeKeepsEntries(t *testing.T) {
	src := New()
	src.Measure("a", 1)
	src.addScoped("b", 2, Charged, Build)
	src.Charge("c", 3)
	want := src.Entries()
	withScope := func(es []Entry, sc Scope) []Entry {
		out := append([]Entry(nil), es...)
		for i := range out {
			out[i].Scope = sc
		}
		return out
	}
	same := func(name string, got, want []Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d: %v", name, len(got), len(want), got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	head := Entry{Phase: "head", Rounds: 4, Kind: Measured, Scope: Query}
	for _, c := range []struct {
		name  string
		merge func(l *Ledger)
		added []Entry
	}{
		{"Merge", func(l *Ledger) { l.Merge(src) }, want},
		{"MergeAs(Build)", func(l *Ledger) { l.MergeAs(src, Build) }, withScope(want, Build)},
		{"MergeAs(Query)", func(l *Ledger) { l.MergeAs(src, Query) }, withScope(want, Query)},
		{"MergeScoped(Build)", func(l *Ledger) { l.MergeScoped(src, Build) }, want[1:2]},
		{"MergeScoped(Query)", func(l *Ledger) { l.MergeScoped(src, Query) }, []Entry{want[0], want[2]}},
	} {
		l := New()
		l.Measure("head", 4)
		c.merge(l)
		same(c.name, l.Entries(), append([]Entry{head}, c.added...))
	}
	same("source after merges", src.Entries(), want)

	self := New()
	self.Measure("a", 1)
	self.addScoped("b", 2, Charged, Build)
	self.Merge(self)
	self.MergeAs(self, Build)
	self.MergeScoped(self, Query)
	a, b := want[0], want[1]
	aB := a
	aB.Scope = Build
	same("self-merge", self.Entries(), []Entry{a, b, a, b, aB, b, aB, b, a, a})

	// Concurrent merges: four goroutines fold src into dst while src and dst
	// both grow; neither loses an entry of its own.
	dst := New()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				dst.Merge(src)
				dst.MergeAs(src, Build)
				dst.MergeScoped(src, Query)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				src.Charge("grow", 1)
				dst.Measure("own", 1)
			}
		}()
	}
	wg.Wait()
	own := 0
	for _, e := range dst.Entries() {
		if e.Phase == "own" {
			own++
		}
	}
	if own != 200 {
		t.Fatalf("dst kept %d of its 200 own entries", own)
	}
	if got := len(src.Entries()); got != len(want)+200 {
		t.Fatalf("src holds %d entries, want %d", got, len(want)+200)
	}
}
