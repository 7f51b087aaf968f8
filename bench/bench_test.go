package main

import (
	"bytes"
	"context"
	"math/rand/v2"
	"regexp"
	"sort"
	"testing"
	"time"

	"planarflow/internal/store"
)

// bruteforce is the percentile's definition without the rank shortcut:
// the smallest sample with at least pct% of all samples at or below it.
func bruteforce(samples []int64, pct int) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, v := range s {
		atOrBelow := 0
		for _, x := range s {
			if x <= v {
				atOrBelow++
			}
		}
		if atOrBelow*100 >= pct*len(s) {
			return v
		}
	}
	return 0
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 9, 10, 100, 399, 400, 1001} {
		a, b := newRecorder(n), newRecorder(n)
		var raw []int64
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int64N(1000)) // small range: ties are common
			raw = append(raw, int64(d))
			if i%2 == 0 {
				a.add(d, true)
			} else {
				b.add(d, false)
			}
		}
		all := merged([]*recorder{a, b})
		for _, pct := range []int{50, 95, 99} {
			if got, want := percentile(all, pct), bruteforce(raw, pct); got != want {
				t.Errorf("n=%d p%d: got %d, brute force says %d", n, pct, got, want)
			}
		}
		hits, misses := splitByHit([]*recorder{a, b})
		if len(hits) != (n+1)/2 || len(misses) != n/2 {
			t.Errorf("n=%d: split %d hits / %d misses", n, len(hits), len(misses))
		}
	}
}

func TestResolvedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct int
		want   bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{200, 95, true},  // rank 190, 10 beyond
		{199, 95, false}, // rank 190, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{0, 50, false},
	} {
		if got := resolved(c.n, c.pct); got != c.want {
			t.Errorf("resolved(%d, p%d) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w.name, w.tiny, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(w.name, w.tiny, 42)
		c, _ := makePlan(w.name, w.tiny, 43)
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 42 gave two different streams", w.name)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
	}
}

func TestStratifiedKeepsExactShares(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	counts := map[int]int{}
	for _, c := range stratified(rng, 1000, []float64{50, 30, 20}) {
		counts[c]++
	}
	if counts[0] != 500 || counts[1] != 300 || counts[2] != 200 {
		t.Errorf("shares %v, want 500/300/200", counts)
	}
	if got := len(stratified(rng, 7, zipfWeights(3, 1.1))); got != 7 {
		t.Errorf("%d draws, want 7", got)
	}
}

// A wrong answer must count as a failed operation: the checker sees one
// corrupted reply among correct ones and the pass reports it.
func TestWrongAnswerIsAFailure(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		p, err := prepare(ctx, w, w.tiny, 5)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.setup(ctx, env{clients: 1, tmp: t.TempDir()}, p)
		if err != nil {
			t.Fatal(err)
		}
		honest := in.do
		in.do = func(ctx context.Context, c call) (reply, error) {
			r, err := honest(ctx, c)
			if c.seq == 2 {
				r.val[0] += 1 << 40
			}
			return r, err
		}
		ps := drive(ctx, in, p, 1, 0, 4, 0)
		in.close()
		if ps.attempted != 4 || ps.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 4 and 1 (%v)", w.name, ps.attempted, ps.failed, ps.failures)
		}
		if ratio := float64(ps.failed) / float64(ps.attempted); ratio <= 0 {
			t.Errorf("%s: fail ratio %v after a corrupted reply", w.name, ratio)
		}
	}
}

// A flow that breaks conservation is caught even when its value is right.
func TestCheckerVerifiesFlows(t *testing.T) {
	ctx := context.Background()
	w := findWorkload("solve_exact")
	p, err := prepare(ctx, w, w.tiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.setup(ctx, env{clients: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for i := range p.Ops {
		r, err := in.do(ctx, call{idx: i})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.check(i, &r); err != nil {
			t.Fatalf("honest reply rejected: %v", err)
		}
		if len(r.ans.Flow) > 0 && r.ans.Value > 0 {
			r.ans.Flow[0] += 11 // beyond every capacity in the catalogue
			if p.check(i, &r) == nil {
				t.Errorf("op %d: corrupted flow accepted", i)
			}
			caught = true
		}
	}
	if !caught {
		t.Fatal("stream had no positive flow to corrupt")
	}
}

func TestPlanarOfMatchesSpecBuild(t *testing.T) {
	for _, sp := range []store.GraphSpec{
		{Kind: "grid", Rows: 4, Cols: 5, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 10},
		{Kind: "snake", Rows: 4, Cols: 4, Seed: 4, WLo: 1, WHi: 9, CLo: 1, CHi: 10},
		{Kind: "triangulation", N: 20, Seed: 5, WLo: 1, WHi: 9, CLo: 1, CHi: 10},
	} {
		pub, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := planarOf(sp)
		if g.N() != pub.N() || g.M() != pub.M() {
			t.Fatalf("%s: %d/%d vertices/edges, spec builds %d/%d", sp.Kind, g.N(), g.M(), pub.N(), pub.M())
		}
		for e := 0; e < g.M(); e++ {
			a, b := g.Edge(e), pub.EdgeAt(e)
			if a.U != b.U || a.V != b.V || a.Weight != b.Weight || a.Cap != b.Cap {
				t.Fatalf("%s edge %d: %+v, spec builds %+v", sp.Kind, e, a, b)
			}
		}
	}
}

func TestSpansNestUnderTheOpenSpan(t *testing.T) {
	tr := newTracer()
	tr.next()
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.begin("inner")
	tr.end()
	tr.end()
	outer, inner := tr.durations("outer"), tr.durations("inner")
	if len(outer) != 1 || len(inner) != 2 {
		t.Fatalf("spans: %d outer, %d inner", len(outer), len(inner))
	}
	if outer[0] < inner[0]+inner[1] {
		t.Errorf("outer span %d ns shorter than its children %d + %d", outer[0], inner[0], inner[1])
	}
	if tr.spans[1].Parent != tr.spans[0].Span || tr.spans[1].Req != 1 {
		t.Errorf("inner span %+v does not point at outer %+v", tr.spans[1], tr.spans[0])
	}
	var none *tracer // the untraced passes run the same code on a nil tracer
	none.next()
	none.begin("x")
	none.end()
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		parent, change, bound float64
		better, want          string
	}{
		{100, 110, 0.25, "lower", "ok"},
		{100, 126, 0.25, "lower", "worse"},
		{100, 80, 0.25, "higher", "ok"},
		{100, 74, 0.25, "higher", "worse"},
		{100, 300, 0.25, "higher", "ok"},
		{0, 1, 0.25, "lower", "unresolved"},
	} {
		if got := verdict(c.parent, c.change, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v -> %v, %s is better) = %s, want %s", c.parent, c.change, c.better, got, c.want)
		}
	}
}

// The smoke test: every workload for a 200 ms window and one traced run
// on graphs that build in milliseconds. What they emit must be exactly
// what BENCHMARK.json declares, and nothing may fail.
func TestSmokeEmitsTheContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	sameSet := func(what string, got map[string]metric, want map[string]string) {
		t.Helper()
		for n, m := range got {
			if !name.MatchString(n) {
				t.Errorf("%s: metric name %q breaks the naming rule", what, n)
			}
			if unit, ok := want[n]; !ok {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not list", what, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, n, m.Unit, unit)
			}
		}
		for n := range want {
			if _, ok := got[n]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which was not emitted", what, n)
			}
		}
	}
	ctx := context.Background()
	e := env{clients: 2, tmp: t.TempDir()}
	for i, w := range workloads {
		if !name.MatchString(w.name) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, spec.Workloads[i].Name)
		}
		res, err := measure(ctx, w, w.tiny, e, 1, 200*time.Millisecond, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Failures)
		}
		sameSet(w.name, res.Metrics, endToEnd)
		tres, err := trace(ctx, w, w.tiny, e, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if tres.Failed != 0 {
			t.Errorf("%s traced: failed %d: %v", w.name, tres.Failed, tres.Failures)
		}
		sameSet(w.name+" traced", tres.Metrics, perLayer)
	}
}
