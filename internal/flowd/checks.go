package flowd

import "fmt"

// FamilyChecks returns one QueryRequest per query family against the
// given graph (n vertices, faces faces): the whole op surface, with the
// st-planar families on an adjacent (common-face) vertex pair and eps=0
// so the exact oracle runs. cmd/flowd's boot-drain-restore test, this
// package's snapshot test and internal/fleet's failover test all gate
// bit-identity on this one list, so their coverage cannot drift apart —
// or away from Ops (a test pins the correspondence).
func FamilyChecks(graph string, n, faces int) []QueryRequest {
	return []QueryRequest{
		{Graph: graph, Op: "dist", U: 0, V: n - 1},
		{Graph: graph, Op: "dirdist", U: 0, V: n - 1},
		{Graph: graph, Op: "dualdist", U: 0, V: faces - 1},
		{Graph: graph, Op: "dualsssp", Source: 0},
		{Graph: graph, Op: "maxflow", U: 0, V: n - 1},
		{Graph: graph, Op: "minstcut", U: 0, V: n - 1},
		{Graph: graph, Op: "stflow", U: 0, V: 1},
		{Graph: graph, Op: "stcut", U: 0, V: 1},
		{Graph: graph, Op: "girth"},
		{Graph: graph, Op: "dirgirth"},
		{Graph: graph, Op: "globalmincut"},
	}
}

// RestartKey reduces a response to the fields that must survive a
// daemon restart bit-for-bit: the payload, its witnesses, and the
// Build/Query rounds split. Wall clock and residency are excluded.
func RestartKey(r *QueryResponse) string {
	return fmt.Sprintf("%s v=%d dist=%v cut=%v neg=%v iter=%d rounds=%+v",
		r.Op, r.Value, r.Dist, r.CutEdges, r.NegCycle, r.Iterations, r.Rounds)
}
