package artifact

import (
	"context"
	"errors"
	"unsafe"

	"planarflow/internal/label"
	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// flowBase is the Stats kind string of exact max-flow's λ = 0 state.
const flowBase = "maxflow-base"

// FlowBase is exact max-flow's λ = 0 state for one tree: what the dual
// looks like before any flow is pushed, under the capacity lengths (Cap
// forward, 0 backward) every residual length of the λ search starts from.
// core.MaxFlow's probes differ from these lengths only on the s–t path's
// darts, and its λ* = 0 assignment reads them unchanged, so one FlowBase
// serves every (s, t) of the graph. It is a simulation cache, not a
// substrate: building it charges no round (the work it saves is the
// simulation's, DESIGN §3), it is never snapshotted, and Stats lists it
// under Caches. Immutable once built.
type FlowBase struct {
	// Lengths are the capacity lengths.
	Lengths []int64
	// Dist is the dual SSSP from face 0 under the capacity lengths: the
	// face potentials of the λ* = 0 assignment.
	Dist []int64
	// Led holds, in order, what that SSSP charges as the assignment step
	// runs it (label.SSSPFrom, its pass charged to led as well): replayed
	// at Query scope by every λ* = 0 assignment.
	Led *ledger.Ledger
}

// FootprintBytes estimates the resident memory of the state at twice its
// records' sizes, as Labeling.FootprintBytes does: the length vector, the
// potentials and the recorded entries. The skeletons a probe loads, the
// whole G* and each bag's X*, belong to the tree's dual plan, which no
// estimate charges yet.
func (fb *FlowBase) FootprintBytes() int64 {
	const (
		word  = int64(2 * unsafe.Sizeof(int64(0)))
		entry = int64(2 * unsafe.Sizeof(ledger.Entry{}))
	)
	return int64(len(fb.Lengths)+len(fb.Dist))*word + int64(len(fb.Led.Entries()))*entry
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
			fb := &FlowBase{Lengths: lens, Dist: sssp.Dist, Led: rec}
			return fb, fb.FootprintBytes(), nil
		})
	return fb, err
}
