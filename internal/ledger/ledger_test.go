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
