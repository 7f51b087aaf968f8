package congest

import (
	"testing"

	"planarflow/internal/planar"
)

// MinOp, SumOp, MaxOp are the standard aggregation operators (Def. 4.3).
var (
	MinOp AggregateOp = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	MaxOp AggregateOp = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	SumOp AggregateOp = func(a, b int64) int64 { return a + b }
)

func TestDistributedBFSMatchesCentralized(t *testing.T) {
	g := planar.Grid(5, 9)
	e := NewEngine(g)
	tree, stats := DistributedBFS(e, 0)
	want := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if tree.Depth[v] != want.Dist[v] {
			t.Fatalf("depth[%d]=%d want %d", v, tree.Depth[v], want.Dist[v])
		}
	}
	if tree.Height != want.Depth {
		t.Fatalf("height=%d want %d", tree.Height, want.Depth)
	}
	if !stats.HaltedNormal {
		t.Fatal("BFS did not halt normally")
	}
	if stats.Violations != 0 {
		t.Fatalf("CONGEST violations: %d", stats.Violations)
	}
	// BFS must finish within O(ecc) rounds.
	if stats.Rounds > 2*want.Depth+8 {
		t.Fatalf("BFS rounds=%d ecc=%d", stats.Rounds, want.Depth)
	}
}

func TestBFSRoundsScaleWithDiameter(t *testing.T) {
	// Same n, different diameter: rounds must track D, not n.
	longThin := planar.Grid(2, 32) // D = 32
	square := planar.Grid(8, 8)    // D = 14
	_, s1 := DistributedBFS(NewEngine(longThin), 0)
	_, s2 := DistributedBFS(NewEngine(square), 0)
	if s1.Rounds <= s2.Rounds {
		t.Fatalf("expected more rounds on long-thin grid: %d vs %d", s1.Rounds, s2.Rounds)
	}
}

func TestFloodMin(t *testing.T) {
	g := planar.Grid(6, 6)
	e := NewEngine(g)
	vals := make([]int64, g.N())
	for v := range vals {
		vals[v] = int64(1000 - v)
	}
	out, stats := FloodMin(e, vals)
	for v, x := range out {
		if x != int64(1000-(g.N()-1)) {
			t.Fatalf("vertex %d got %d", v, x)
		}
	}
	if stats.Violations != 0 {
		t.Fatalf("violations: %d", stats.Violations)
	}
}

func TestTreeAggregateSum(t *testing.T) {
	g := planar.Grid(4, 7)
	e := NewEngine(g)
	tree, _ := DistributedBFS(e, 3)
	input := make([]int64, g.N())
	var want int64
	for v := range input {
		input[v] = int64(v * v % 13)
		want += input[v]
	}
	got, stats := TreeAggregate(e, tree, input, SumOp)
	if got != want {
		t.Fatalf("sum=%d want %d", got, want)
	}
	// The charge a convergecast plus broadcast over a depth-d tree is
	// priced at (maxflow/find-path, dirgirth/assemble, */mark-tree):
	// 2·(d+1) rounds.
	if stats.Rounds > 2*(tree.Height+1) {
		t.Fatalf("aggregate rounds=%d exceed 2·(height+1), height=%d", stats.Rounds, tree.Height)
	}
	if stats.Violations != 0 {
		t.Fatalf("violations: %d", stats.Violations)
	}
}

func TestTreeAggregateMinMax(t *testing.T) {
	g := planar.Cylinder(3, 8)
	e := NewEngine(g)
	tree, _ := DistributedBFS(e, 0)
	input := make([]int64, g.N())
	for v := range input {
		input[v] = int64((v*7 + 3) % 19)
	}
	gotMin, _ := TreeAggregate(e, tree, input, MinOp)
	gotMax, _ := TreeAggregate(e, tree, input, MaxOp)
	wantMin, wantMax := input[0], input[0]
	for _, x := range input {
		if x < wantMin {
			wantMin = x
		}
		if x > wantMax {
			wantMax = x
		}
	}
	if gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("min/max = %d/%d want %d/%d", gotMin, gotMax, wantMin, wantMax)
	}
}

func TestPipelinedBroadcast(t *testing.T) {
	g := planar.Grid(5, 5)
	e := NewEngine(g)
	tree, _ := DistributedBFS(e, 12)
	values := []int64{5, 3, 9, 1, 7, 2}
	got, stats := PipelinedBroadcast(e, tree, values)
	for v := 0; v < g.N(); v++ {
		if len(got[v]) != len(values) {
			t.Fatalf("vertex %d got %d values, want %d", v, len(got[v]), len(values))
		}
		for i := range values {
			if got[v][i] != values[i] {
				t.Fatalf("vertex %d value %d = %d want %d", v, i, got[v][i], values[i])
			}
		}
	}
	// Pipelining: height + k + O(1), not height*k.
	if stats.Rounds > tree.Height+len(values)+8 {
		t.Fatalf("broadcast rounds=%d height=%d k=%d", stats.Rounds, tree.Height, len(values))
	}
	if stats.Violations != 0 {
		t.Fatalf("violations: %d", stats.Violations)
	}
}

func TestIdentifyFaces(t *testing.T) {
	for _, g := range []*planar.Graph{
		planar.Grid(3, 3),
		planar.Grid(2, 6),
		planar.Cylinder(2, 5),
	} {
		e := NewEngine(g)
		minOf, stats := IdentifyFaces(e)
		if stats.Violations != 0 {
			t.Fatalf("violations: %d", stats.Violations)
		}
		fd := g.Faces()
		// Every dart of a face must agree on the face's minimum dart.
		for f := 0; f < fd.NumFaces(); f++ {
			want := fd.Cycle(f)[0]
			for _, d := range fd.Cycle(f) {
				if d < want {
					want = d
				}
			}
			for _, d := range fd.Cycle(f) {
				if minOf[d] != want {
					t.Fatalf("dart %d: face id %d want %d", d, minOf[d], want)
				}
			}
		}
		// Darts of different faces must have different ids.
		seen := map[planar.Dart]int{}
		for d := planar.Dart(0); int(d) < g.NumDarts(); d++ {
			f := fd.FaceOf(d)
			if prev, ok := seen[minOf[d]]; ok && prev != f {
				t.Fatalf("faces %d and %d share id %d", prev, f, minOf[d])
			}
			seen[minOf[d]] = f
		}
		// Rounds track the longest face boundary.
		maxFace := 0
		for f := 0; f < fd.NumFaces(); f++ {
			if fd.Len(f) > maxFace {
				maxFace = fd.Len(f)
			}
		}
		if stats.Rounds > 2*maxFace+8 {
			t.Fatalf("rounds=%d maxFace=%d", stats.Rounds, maxFace)
		}
	}
}

func TestEngineDetectsCongestionViolation(t *testing.T) {
	g := planar.Grid(2, 2)
	e := NewEngine(g)
	stats := e.Run(func(c *Ctx) {
		if c.Round == 0 && c.V == 0 {
			d := g.Rotation(0)[0]
			c.Send(d, 1, e.B())
			c.Send(d, 2, e.B()) // second message on same dart: violation
		}
		c.Halt()
	}, 4)
	if stats.Violations != 1 {
		t.Fatalf("violations=%d want 1", stats.Violations)
	}
}

func TestPortEngineDuplicateSendViolation(t *testing.T) {
	// Each dart of an edge is its own port: one message per direction per
	// round is legal, a second on the same dart is one violation.
	g := planar.Grid(1, 2)
	e := NewEngine(g)
	d := g.Rotation(0)[0]
	stats := e.Run(func(c *Ctx) {
		if c.Round == 0 {
			switch c.V {
			case 0:
				c.Send(d, 1, e.B())
				c.Send(d, 2, e.B())
			case 1:
				c.Send(planar.Rev(d), 3, e.B())
			}
		}
		c.Halt()
	}, 3)
	if stats.Violations != 1 {
		t.Fatalf("violations=%d want 1", stats.Violations)
	}
}

func TestEngineDetectsOversizedMessage(t *testing.T) {
	g := planar.Grid(2, 2)
	e := NewEngine(g)
	stats := e.Run(func(c *Ctx) {
		if c.Round == 0 && c.V == 0 {
			c.Send(g.Rotation(0)[0], 1, e.B()+1)
		}
		c.Halt()
	}, 4)
	if stats.Violations != 1 {
		t.Fatalf("violations=%d want 1", stats.Violations)
	}
}

func TestEngineRoundCap(t *testing.T) {
	g := planar.Grid(2, 2)
	e := NewEngine(g)
	// Never halts: ping-pong forever.
	stats := e.Run(func(c *Ctx) {
		if c.V == 0 {
			c.Send(g.Rotation(0)[0], 1, 1)
		}
	}, 10)
	if stats.Rounds != 10 || stats.HaltedNormal {
		t.Fatalf("expected round cap: rounds=%d halted=%v", stats.Rounds, stats.HaltedNormal)
	}
}

func TestMessageBits(t *testing.T) {
	if MessageBits(2) != 4 {
		t.Fatalf("B(2)=%d", MessageBits(2))
	}
	if MessageBits(1024) != 40 {
		t.Fatalf("B(1024)=%d", MessageBits(1024))
	}
	if MessageBits(1025) != 44 {
		t.Fatalf("B(1025)=%d", MessageBits(1025))
	}
}
