package artifact

import (
	"context"
	"errors"
	"unsafe"

	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
	"planarflow/internal/spath"
)

// flowBase is the Stats kind string of exact max-flow's λ = 0 state.
const flowBase = "maxflow-base"

// FlowBase is exact max-flow's λ = 0 state for one tree: what the dual
// looks like before any flow is pushed, under the capacity lengths (Cap
// forward, 0 backward) every residual length of the λ search starts from.
// core.MaxFlow's probes differ from these lengths only on the s–t path's
// darts, and its λ* = 0 assignment reads them unchanged, so one FlowBase
// serves every (s, t) of the graph; so does the residual graph of the flow
// that assignment returns, which core.MinSTCut searches at λ* = 0. It is a
// simulation cache, not a substrate: building it charges no round (the
// work it saves is the simulation's, DESIGN §3), it is never snapshotted,
// and Stats lists it under Caches. Immutable once built.
type FlowBase struct {
	// Lengths are the capacity lengths.
	Lengths []int64
	// Dist is the dual SSSP from face 0 under the capacity lengths: the
	// face potentials of the λ* = 0 assignment.
	Dist []int64
	// Flow is the circulation Dist induces (Circulation): the λ* = 0
	// assignment of every (s, t) pair. Readers copy it before changing it.
	Flow []int64
	// Led holds, in order, what that SSSP charges as the assignment step
	// runs it (label.SSSPFrom, its pass charged to led as well): replayed
	// at Query scope by every λ* = 0 assignment.
	Led *ledger.Ledger
	// CutLengths are min st-cut's residual lengths under the flow Dist
	// induces (ResidualLengths of Circulation), and CutLed holds what the
	// primal labeling pass over them charges (label.Feasible, as
	// label.SSSPFrom charges its pass): replayed at Query scope by every
	// λ* = 0 min cut, which then runs only its row from s.
	CutLengths []int64
	CutLed     *ledger.Ledger
}

// FootprintBytes estimates the resident memory of the state at twice its
// records' sizes, as Labeling.FootprintBytes does: the two length vectors,
// the potentials, the circulation and the recorded entries. The skeletons a
// probe loads, the whole G* and each bag's X*, belong to the tree's dual
// plan, which no estimate charges yet.
func (fb *FlowBase) FootprintBytes() int64 {
	const (
		word  = int64(2 * unsafe.Sizeof(int64(0)))
		entry = int64(2 * unsafe.Sizeof(ledger.Entry{}))
	)
	return int64(len(fb.Lengths)+len(fb.Dist)+len(fb.Flow)+len(fb.CutLengths))*word +
		int64(len(fb.Led.Entries())+len(fb.CutLed.Entries()))*entry
}

// Circulation is the flow face potentials dist induce on g: per edge, in
// its U→V direction, dist at the face right of its forward dart's reverse
// minus dist at the forward dart's face — ψ(head*) − ψ(tail*).
func Circulation(g *planar.Graph, dist []int64) []int64 {
	fd := g.Faces()
	flow := make([]int64, g.M())
	for e := range flow {
		fw := planar.ForwardDart(e)
		flow[e] = dist[fd.FaceOf(planar.Rev(fw))] - dist[fd.FaceOf(fw)]
	}
	return flow
}

// ResidualLengths are the primal lengths of flow's residual graph on g:
// length 0 on a dart with residual capacity (a forward dart below its
// edge's capacity, a backward dart of an edge carrying flow), spath.Inf on
// a saturated one, so v is reachable from s exactly when dist(s, v) = 0.
func ResidualLengths(g *planar.Graph, flow []int64) []int64 {
	lengths := make([]int64, g.NumDarts())
	for e, f := range flow {
		fw, bw := planar.ForwardDart(e), planar.BackwardDart(e)
		lengths[fw], lengths[bw] = spath.Inf, spath.Inf
		if g.Edge(e).Cap-f > 0 {
			lengths[fw] = 0
		}
		if f > 0 {
			lengths[bw] = 0
		}
	}
	return lengths
}

// FlowBase returns max-flow's λ = 0 state over the BDD for leafLimit,
// building it on first use under the slot singleflight (and the BDD, whose
// build is charged to led as Tree charges it). The state itself charges
// nothing, at any scope. A graph whose capacity lengths close a negative
// dual cycle (a negative capacity) has no state: the build fails and
// publishes nothing. The other possible error is the view context's
// cancellation.
func (p *Prepared) FlowBase(leafLimit int, led *ledger.Ledger) (*FlowBase, error) {
	leafLimit = p.ResolveLeafLimit(leafLimit)
	p.st.mu.Lock()
	s, ok := p.st.flows[leafLimit]
	if !ok {
		s = &slot[*FlowBase]{cache: true}
		p.st.flows[leafLimit] = s
	}
	p.st.mu.Unlock()
	fb, _, _, err := get(p, s, flowBase,
		func(ctx context.Context, _ *ledger.Ledger) (*FlowBase, int64, error) {
			tree, err := p.Tree(leafLimit, led)
			if err != nil {
				return nil, 0, err
			}
			g := p.st.g
			lens := make([]int64, g.NumDarts())
			for e := 0; e < g.M(); e++ {
				lens[planar.ForwardDart(e)] = g.Edge(e).Cap
			}
			rec := ledger.New()
			sssp, err := label.SSSPFrom(ctx, label.Dual, tree, lens, 0, rec, rec)
			if err != nil {
				return nil, 0, err
			}
			if sssp.NegCycle {
				return nil, 0, errors.New("artifact: capacity lengths close a negative dual cycle")
			}
			flow := Circulation(g, sssp.Dist)
			cut, cutRec := ResidualLengths(g, flow), ledger.New()
			if _, err := label.Feasible(ctx, label.Primal, tree, cut, cutRec); err != nil {
				return nil, 0, err
			}
			fb := &FlowBase{Lengths: lens, Dist: sssp.Dist, Flow: flow, Led: rec, CutLengths: cut, CutLed: cutRec}
			return fb, fb.FootprintBytes(), nil
		})
	return fb, err
}
