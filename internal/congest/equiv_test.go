package congest

import (
	"fmt"
	"testing"

	"planarflow/internal/planar"
)

// Differential tests: every primitive must produce identical Stats and
// identical results on the flat-mailbox scheduler (Engine) and on the
// reference channel engine (ChanEngine). The graph set includes instances
// well above the scheduler's serial threshold so the persistent worker pool
// path is exercised.

func equivGraphs() map[string]*planar.Graph {
	return map[string]*planar.Graph{
		"grid5x9":    planar.Grid(5, 9),
		"grid16x16":  planar.Grid(16, 16),
		"cyl4x12":    planar.Cylinder(4, 12),
		"longthin":   planar.Grid(2, 40),
		"stacked120": planar.StackedTriangulation(120, planar.NewRand(7)),
	}
}

func diffStats(t *testing.T, name string, chanS, schedS Stats) {
	t.Helper()
	if chanS != schedS {
		t.Fatalf("%s: stats diverge:\n  chan:  %+v\n  sched: %+v", name, chanS, schedS)
	}
}

func TestEquivalenceBFS(t *testing.T) {
	for name, g := range equivGraphs() {
		tc, sc := NewChanEngine(g), NewEngine(g)
		treeC, statsC := DistributedBFS(tc, 0)
		treeS, statsS := DistributedBFS(sc, 0)
		diffStats(t, name, statsC, statsS)
		for v := 0; v < g.N(); v++ {
			if treeC.Depth[v] != treeS.Depth[v] || treeC.Parent[v] != treeS.Parent[v] {
				t.Fatalf("%s: tree diverges at %d: depth %d/%d parent %d/%d",
					name, v, treeC.Depth[v], treeS.Depth[v], treeC.Parent[v], treeS.Parent[v])
			}
		}
	}
}

func TestEquivalenceFloodMin(t *testing.T) {
	for name, g := range equivGraphs() {
		rng := planar.NewRand(42)
		vals := make([]int64, g.N())
		for v := range vals {
			vals[v] = rng.Int64N(1 << 30)
		}
		outC, statsC := FloodMin(NewChanEngine(g), vals)
		outS, statsS := FloodMin(NewEngine(g), vals)
		diffStats(t, name, statsC, statsS)
		for v := range outC {
			if outC[v] != outS[v] {
				t.Fatalf("%s: flood diverges at %d: %d vs %d", name, v, outC[v], outS[v])
			}
		}
	}
}

func TestEquivalenceTreeAggregate(t *testing.T) {
	for name, g := range equivGraphs() {
		input := make([]int64, g.N())
		for v := range input {
			input[v] = int64(v*v%37 + 1)
		}
		ec, es := NewChanEngine(g), NewEngine(g)
		treeC, _ := DistributedBFS(ec, 1)
		treeS, _ := DistributedBFS(es, 1)
		for _, op := range []AggregateOp{SumOp, MinOp, MaxOp} {
			gotC, statsC := TreeAggregate(ec, treeC, input, op)
			gotS, statsS := TreeAggregate(es, treeS, input, op)
			diffStats(t, name, statsC, statsS)
			if gotC != gotS {
				t.Fatalf("%s: aggregate diverges: %d vs %d", name, gotC, gotS)
			}
		}
	}
}

func TestEquivalencePipelinedBroadcast(t *testing.T) {
	values := []int64{9, 4, 1, 8, 6, 3, 5}
	for name, g := range equivGraphs() {
		ec, es := NewChanEngine(g), NewEngine(g)
		treeC, _ := DistributedBFS(ec, 0)
		treeS, _ := DistributedBFS(es, 0)
		gotC, statsC := PipelinedBroadcast(ec, treeC, values)
		gotS, statsS := PipelinedBroadcast(es, treeS, values)
		diffStats(t, name, statsC, statsS)
		for v := 0; v < g.N(); v++ {
			if fmt.Sprint(gotC[v]) != fmt.Sprint(gotS[v]) {
				t.Fatalf("%s: broadcast diverges at %d: %v vs %v", name, v, gotC[v], gotS[v])
			}
		}
	}
}

func TestEquivalenceIdentifyFaces(t *testing.T) {
	for name, g := range equivGraphs() {
		minC, statsC := IdentifyFaces(NewChanEngine(g))
		minS, statsS := IdentifyFaces(NewEngine(g))
		diffStats(t, name, statsC, statsS)
		for d := range minC {
			if minC[d] != minS[d] {
				t.Fatalf("%s: face id diverges at dart %d: %d vs %d", name, d, minC[d], minS[d])
			}
		}
	}
}

func TestEquivalenceViolationAccounting(t *testing.T) {
	// Oversized and duplicate sends must be charged identically.
	g := planar.Grid(3, 3)
	step := func(c *Ctx) {
		if c.Round == 0 && c.V == 0 {
			d := g.Rotation(0)[0]
			c.Send(d, 1, 999)              // oversized: delivered + violation
			c.Send(d, 2, 1)                // duplicate: dropped + violation
			c.Send(g.Rotation(0)[1], 3, 1) // clean
		}
		c.Halt()
	}
	statsC := NewChanEngine(g).Run(step, 6)
	statsS := NewEngine(g).Run(step, 6)
	diffStats(t, "violations", statsC, statsS)
	if statsS.Violations != 2 {
		t.Fatalf("violations=%d want 2", statsS.Violations)
	}
}

// stepTrace records what every vertex observed, per vertex then per round,
// so concurrently-executed runs serialize to a canonical byte string.
// Only rounds in which a vertex observes input are recorded: the scheduler
// skips a sleeping vertex's empty steps entirely, while the channel engine
// invokes them as no-ops, so empty steps are the one place the two engines
// legitimately differ.
func stepTrace(e Runner, g *planar.Graph, inner StepFunc, maxRounds int) []byte {
	traces := make([][]byte, g.N())
	e.Run(func(c *Ctx) {
		if len(c.In) > 0 || c.Round == 0 {
			traces[c.V] = append(traces[c.V], []byte(fmt.Sprintf("r%d:", c.Round))...)
			for _, m := range c.In {
				traces[c.V] = append(traces[c.V], []byte(fmt.Sprintf("(%d,%v,%d)", m.In, m.Payload, m.Bits))...)
			}
			traces[c.V] = append(traces[c.V], ';')
		}
		inner(c)
	}, maxRounds)
	var out []byte
	for v, tr := range traces {
		out = append(out, []byte(fmt.Sprintf("v%d|", v))...)
		out = append(out, tr...)
		out = append(out, '\n')
	}
	return out
}

// TestSchedulerDeterministic runs the same seeded algorithm twice and
// requires byte-identical message ledgers: every vertex must see the same
// inbox contents in the same rounds both times, despite concurrent step
// execution.
func TestSchedulerDeterministic(t *testing.T) {
	g := planar.StackedTriangulation(150, planar.NewRand(5))
	mkStep := func() StepFunc {
		best := make([]int64, g.N())
		for v := range best {
			best[v] = int64((v*2654435761 + 12345) % 100003)
		}
		return func(c *Ctx) {
			improved := c.Round == 0
			for _, m := range c.In {
				if tok, ok := m.Payload.(floodToken); ok && tok.id < best[c.V] {
					best[c.V] = tok.id
					improved = true
				}
			}
			if improved {
				for _, d := range g.Rotation(c.V) {
					c.Send(d, floodToken{id: best[c.V]}, 32)
				}
			}
			c.Halt()
		}
	}
	t1 := stepTrace(NewEngine(g), g, mkStep(), 4*g.N())
	t2 := stepTrace(NewEngine(g), g, mkStep(), 4*g.N())
	if string(t1) != string(t2) {
		t.Fatal("two runs of the same seeded algorithm produced different ledgers")
	}
	// And the scheduler trace must equal the channel-engine trace.
	t3 := stepTrace(NewChanEngine(g), g, mkStep(), 4*g.N())
	if string(t1) != string(t3) {
		t.Fatal("scheduler ledger diverges from channel-engine ledger")
	}
}
