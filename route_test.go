package planarflow_test

// The one differential net: every route a caller can take to an answer —
// the library's simulated, decode, fresh-bundle, batch, oracle and
// restored routes; a restarted store; flowd over HTTP, TCP and UDS, singly
// and in batches; the fleet after a failover; the fleet front binary —
// answers what the others answer and refuses what the others refuse, in
// the same class. A new family, route or input class is one more row.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"planarflow"
	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/spath"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// netGraph is one graph of the net: its spec (what the serving routes
// register), the graph the library routes build from it, and its answer
// table.
type netGraph struct {
	id   string
	spec store.GraphSpec
	g    *planarflow.Graph
	qs   []planarflow.Query
}

// netSpecs is one spec per generator kind, with random weights and
// capacities.
var netSpecs = []struct {
	id   string
	spec store.GraphSpec
}{
	{"grid", store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 11, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
	{"cylinder", store.GraphSpec{Kind: "cylinder", Rows: 5, Cols: 6, Seed: 5, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
	{"snake", store.GraphSpec{Kind: "snake", Rows: 5, Cols: 5, Seed: 7, WLo: 1, WHi: 20, CLo: 1, CHi: 9}},
	{"triangulation", store.GraphSpec{Kind: "triangulation", N: 40, Seed: 3, WLo: 1, WHi: 9, CLo: 1, CHi: 12}},
}

// negID and negSpec are the negative-weight graph the refusal rows of the
// positive-weight families run on.
const negID = "negative"

var negSpec = store.GraphSpec{Kind: "grid", Rows: 3, Cols: 4, Seed: 2, WLo: -3, WHi: 5, CLo: 1, CHi: 8}

// overWeightSpec is past the weight contract: weights of 2^52 on a 4x4 grid.
var overWeightSpec = store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4, WLo: 1 << 52, WHi: 1 << 52}

// dinic is the centralized max-flow baseline on g's capacities, each edge
// one arc U→V, or both ways when undirected.
func dinic(g *planarflow.Graph, s, t int, undirected bool) int64 {
	fn := spath.NewFlowNetwork(g.N())
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		fn.AddEdge(ed.U, ed.V, ed.Cap, e)
		if undirected {
			fn.AddEdge(ed.V, ed.U, ed.Cap, e)
		}
	}
	return fn.MaxFlow(s, t)
}

// digraph is g's weights as arcs U→V, and V→U too when undirected.
func digraph(g *planarflow.Graph, undirected bool) *spath.Digraph {
	dg := spath.NewDigraph(g.N())
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		dg.AddArc(ed.U, ed.V, ed.Weight, e)
		if undirected {
			dg.AddArc(ed.V, ed.U, ed.Weight, e)
		}
	}
	return dg
}

// triples is g's edges as (u, v, weight) triples.
func triples(g *planarflow.Graph) (us, vs []int, ws []int64) {
	for e := 0; e < g.M(); e++ {
		ed := g.EdgeAt(e)
		us, vs, ws = append(us, ed.U), append(vs, ed.V), append(ws, ed.Weight)
	}
	return us, vs, ws
}

// netQueries is g's answer table: every kind, maxflow and minstcut on a
// pair with λ* > 0 and (where g has one) a pair with λ* = 0, stflow and
// stcut at eps 0 and 0.25 on a pair that shares a face, repeats so the
// memos hit, and a spread of point distances.
func netQueries(t *testing.T, g *planarflow.Graph) []planarflow.Query {
	t.Helper()
	n, f := g.N(), g.NumFaces()
	pos, zero := [2]int{-1, -1}, [2]int{-1, -1}
	for s := 0; s < n && (pos[0] < 0 || zero[0] < 0); s++ {
		for u := n - 1; u >= 0; u-- {
			if u == s {
				continue
			}
			if v := dinic(g, s, u, false); v > 0 && pos[0] < 0 {
				pos = [2]int{s, u}
			} else if v == 0 && zero[0] < 0 {
				zero = [2]int{s, u}
			}
		}
	}
	if pos[0] < 0 {
		t.Fatal("no pair with a positive max flow")
	}
	shared := [2]int{-1, -1}
	for s := 0; s < n && shared[0] < 0; s++ {
		for u := n - 1; u > s; u-- {
			if g.SharedFace(s, u) {
				shared = [2]int{s, u}
				break
			}
		}
	}
	qs := []planarflow.Query{
		planarflow.DistQuery(0, n-1),
		planarflow.MaxFlowQuery(pos[0], pos[1]),
		planarflow.DualSSSPQuery(0),
		planarflow.DirectedDistQuery(0, n-1),
		planarflow.GirthQuery(),
		planarflow.STFlowQuery(shared[0], shared[1], 0),
		planarflow.MinSTCutQuery(pos[0], pos[1]),
		planarflow.DualDistQuery(0, f-1),
		planarflow.STCutQuery(shared[0], shared[1], 0.25),
		planarflow.DirectedGirthQuery(),
		planarflow.GlobalMinCutQuery(),
		planarflow.DualSSSPQuery(f / 2),
		planarflow.DistQuery(n-1, 1),
		planarflow.DirectedDistQuery(n-1, 0),
		planarflow.DualDistQuery(f/2, 1),
		planarflow.STFlowQuery(shared[0], shared[1], 0.25),
		planarflow.STCutQuery(shared[0], shared[1], 0),
		// Repeats: served from warm substrates and the decode memos.
		planarflow.DualSSSPQuery(0),
		planarflow.GirthQuery(),
		planarflow.DirectedGirthQuery(),
		planarflow.GlobalMinCutQuery(),
		planarflow.MaxFlowQuery(pos[0], pos[1]),
		planarflow.DistQuery(0, n-1),
	}
	if zero[0] >= 0 {
		qs = append(qs, planarflow.MaxFlowQuery(zero[0], zero[1]), planarflow.MinSTCutQuery(zero[0], zero[1]))
	}
	// A spread of point distances, which the oracle views answer too.
	for u := 0; u < n; u += 9 {
		for v := 2; v < n; v += 7 {
			qs = append(qs, planarflow.DistQuery(u, v), planarflow.DirectedDistQuery(u, v))
		}
	}
	for f1 := 0; f1 < f; f1 += 4 {
		qs = append(qs, planarflow.DualDistQuery(f1, f-1-f1))
	}
	return qs
}

// reqOf is q as a flowd request against graph.
func reqOf(graph string, q planarflow.Query) flowd.QueryRequest {
	return flowd.QueryRequest{Graph: graph, Op: string(q.Kind), U: q.U, V: q.V, Source: q.Source, Eps: q.Eps}
}

// batchOf is qs as one flowd batch against graph.
func batchOf(graph string, qs []planarflow.Query) flowd.BatchRequest {
	b := flowd.BatchRequest{Graph: graph, Workers: 4}
	for _, q := range qs {
		b.Queries = append(b.Queries, flowd.BatchQuery{Op: string(q.Kind), U: q.U, V: q.V, Source: q.Source, Eps: q.Eps})
	}
	return b
}

// carried is what a serving route carries of an answer: the payload of a
// QueryResponse and its rounds. Empty and nil slices are one value, as
// JSON's omitempty makes them.
type carried struct {
	Value      int64
	Dist       []int64
	Edges      []int
	NegCycle   bool
	Iterations int
	Rounds     flowd.Rounds
}

func normalized(c carried) carried {
	if len(c.Dist) == 0 {
		c.Dist = nil
	}
	if len(c.Edges) == 0 {
		c.Edges = nil
	}
	return c
}

func carriedOfAnswer(a *planarflow.Answer) carried {
	return normalized(carried{a.Value, a.Dist, a.Edges, a.NegCycle, a.Iterations,
		flowd.Rounds{Total: a.Rounds.Total, Build: a.Rounds.Build, Query: a.Rounds.Query}})
}

func carriedOfResponse(r *flowd.QueryResponse) carried {
	return normalized(carried{r.Value, r.Dist, r.CutEdges, r.NegCycle, r.Iterations, r.Rounds})
}

func carriedOfResult(r *flowd.BatchResult) carried {
	return normalized(carried{r.Value, r.Dist, r.CutEdges, r.NegCycle, r.Iterations, r.Rounds})
}

// withoutBuild drops what a route that does not replay the cold-to-warm
// sequence may differ in: the Build rounds and the Total they add to.
func withoutBuild(c carried) carried {
	c.Rounds = flowd.Rounds{Query: c.Rounds.Query}
	return c
}

// samePayload reports whether two library answers carry the same payload,
// every field of Answer but the rounds, and the same Query rounds.
func samePayload(a, b *planarflow.Answer) bool {
	x, y := *a, *b
	x.Rounds, y.Rounds = planarflow.Rounds{Query: a.Rounds.Query}, planarflow.Rounds{Query: b.Rounds.Query}
	return reflect.DeepEqual(x, y)
}

// daemon is one flowd server over its own store, serving HTTP, TCP wire
// and UDS wire.
type daemon struct {
	st  *store.Store
	url string
	c   *flowd.Client
	tcp *flowd.WireClient
	uds *flowd.WireClient
}

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func startDaemon(t *testing.T, cfg store.Config) *daemon {
	t.Helper()
	st := store.New(cfg)
	srv := flowd.NewServerWith(st, flowd.ServerOptions{Logger: quietLog()})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "flowd.sock")
	uln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Wire().Serve(tln)
	go srv.Wire().Serve(uln)
	t.Cleanup(func() { srv.Wire().Close() })
	d := &daemon{
		st: st, url: hs.URL, c: flowd.NewClient(hs.URL),
		tcp: flowd.NewWireClient("tcp", tln.Addr().String(), flowd.WireOptions{PoolSize: 1}),
		uds: flowd.NewWireClient("unix", sock, flowd.WireOptions{PoolSize: 1}),
	}
	t.Cleanup(func() { d.tcp.Close(); d.uds.Close() })
	return d
}

// post sends body to url+path and returns the status.
func post(t *testing.T, url, path, body string) int {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// httpClassOf is the HTTP class of a refusal a flowd or fleet client met:
// an HTTP status, or a wire status in its HTTP class.
func httpClassOf(err error) int {
	var ae *flowd.APIError
	var se *flowd.StatusError
	switch {
	case errors.As(err, &ae):
		return ae.Status
	case errors.As(err, &se):
		return flowd.HTTPStatusOf(se.Status)
	case err == nil:
		return http.StatusOK
	}
	return -1
}

// wireStatus is the wire status each HTTP class stands for.
var wireStatus = map[int]wire.Status{
	http.StatusBadRequest: wire.StatusBadRequest,
	http.StatusNotFound:   wire.StatusNotFound,
	http.StatusConflict:   wire.StatusConflict,
}

// target is one HTTP carrier of a JSON body: the flowd daemon, or a fleet
// front binary over in-process replicas.
type target struct {
	name string
	url  string
}

// startFronts builds cmd/flowdfleet and boots it twice, routing queries
// over HTTP and over the wire, each with two replicas.
func startFronts(t *testing.T) []target {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "flowdfleet")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/flowdfleet").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var fronts []target
	for _, wireOn := range []bool{false, true} {
		args := []string{"-addr", "127.0.0.1:0", "-replicas", "2", "-sync-interval", "0", "-log-level", "error"}
		name := "front/http"
		if wireOn {
			args, name = append(args, "-wire"), "front/wire"
		}
		cmd := exec.Command(bin, args...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		addr := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if _, rest, ok := strings.Cut(sc.Text(), " replicas behind "); ok {
					addr <- strings.Fields(rest)[0]
				}
			}
			close(addr)
		}()
		select {
		case a, ok := <-addr:
			if !ok {
				t.Fatalf("%s exited before serving", name)
			}
			fronts = append(fronts, target{name, "http://" + a})
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not start serving in 60s", name)
		}
	}
	return fronts
}

// brief is err's text cut to a line: refusals may quote a 5,000-byte id.
func brief(err error) string {
	s := fmt.Sprint(err)
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

// netEnv is every route of the net, set up as the test goes.
type netEnv struct {
	ctx    context.Context
	graphs []*netGraph
	ref    map[string][]*planarflow.Answer      // the decode route's answers
	shared map[string]*planarflow.PreparedGraph // the decode route's bundles

	http, tcp, uds *daemon // one daemon per transport
	restarted      *store.Store
	reps           []*fleet.Replica
	fc             *fleet.Client
	fronts         []target
}

// TestEveryRouteAgrees is the one differential net. On one spec per
// generator kind it runs each graph's answer table through every route and
// holds each to the decode route: the payload the route carries and the
// Query rounds everywhere; the Build rounds and hit bits too on the routes
// that replay the same cold-to-warm sequence from a fresh bundle or
// daemon; no build at all on the routes that restore. The decode route
// itself is held to centralized baselines. Then every input class is sent
// down every route that can carry it, and each must refuse it in the same
// class: the library's or the store's sentinel, the HTTP status, the wire
// status and the fleet front's status.
func TestEveryRouteAgrees(t *testing.T) {
	e := &netEnv{ctx: context.Background(), ref: map[string][]*planarflow.Answer{}, shared: map[string]*planarflow.PreparedGraph{}}
	covered := map[planarflow.QueryKind]bool{}
	lambdaZero := false
	for _, ns := range netSpecs {
		g, err := ns.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		ng := &netGraph{id: ns.id, spec: ns.spec, g: g, qs: netQueries(t, g)}
		for _, q := range ng.qs {
			covered[q.Kind] = true
			if q.Kind == planarflow.QMaxFlow && dinic(g, q.U, q.V, false) == 0 {
				lambdaZero = true
			}
		}
		e.graphs = append(e.graphs, ng)
	}
	for _, k := range planarflow.QueryKinds {
		if !covered[k] {
			t.Fatalf("no query of kind %q in the answer table", k)
		}
	}
	if !lambdaZero {
		t.Fatal("no maxflow pair with λ* = 0 in the answer table")
	}

	// The decode route is the reference: one shared bundle per graph, the
	// answer table in order.
	for _, ng := range e.graphs {
		p, err := planarflow.Prepare(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		e.shared[ng.id] = p
		for _, q := range ng.qs {
			a, err := p.Do(e.ctx, q)
			if err != nil {
				t.Fatalf("%s %+v: %v", ng.id, q, err)
			}
			e.ref[ng.id] = append(e.ref[ng.id], a)
		}
	}

	t.Run("baselines", e.baselines)
	t.Run("library", e.library)
	t.Run("restored", e.restored)
	e.startServing(t)
	t.Run("flowd", e.flowd)
	t.Run("restart", e.restart) // restores what flowd's HTTP pass left resident
	t.Run("fleet", e.fleet)
	t.Run("refusals", e.refusals)
	t.Run("registrations", e.registrations)
}

// baselines holds the decode route to centralized algorithms on each
// graph's edges. The dual families are held to the simulated route.
func (e *netEnv) baselines(t *testing.T) {
	for _, ng := range e.graphs {
		g := ng.g
		us, vs, ws := triples(g)
		undirected, directed := digraph(g, true), digraph(g, false)
		for i, q := range ng.qs {
			var want int64
			switch q.Kind {
			case planarflow.QDist:
				want = spath.Dijkstra(undirected, q.U).Dist[q.V]
			case planarflow.QDirectedDist:
				want = spath.Dijkstra(directed, q.U).Dist[q.V]
			case planarflow.QMaxFlow, planarflow.QMinSTCut:
				want = dinic(g, q.U, q.V, false)
			case planarflow.QSTFlow, planarflow.QSTCut:
				if q.Eps != 0 {
					continue
				}
				want = dinic(g, q.U, q.V, true)
			case planarflow.QGirth:
				want = spath.UndirectedGirth(g.N(), us, vs, ws)
			case planarflow.QDirectedGirth:
				want = spath.DirectedMinCycle(directed)
			case planarflow.QGlobalMinCut:
				want = spath.DirectedGlobalMinCut(g.N(), us, vs, ws)
			default:
				continue
			}
			if got := e.ref[ng.id][i].Value; got != want {
				t.Errorf("%s %+v: decode route %d, baseline %d", ng.id, q, got, want)
			}
		}
	}
}

// library runs the table through the library's other routes: simulated
// (the same cold-to-warm sequence, bit-identical down to the per-phase
// rounds), a fresh bundle per query, one DoBatch, and the oracle views.
func (e *netEnv) library(t *testing.T) {
	for _, ng := range e.graphs {
		want := e.ref[ng.id]
		sim, err := planarflow.Prepare(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range ng.qs {
			a, err := sim.Do(e.ctx, q.WithSimulated())
			if err != nil {
				t.Fatalf("simulated %s %+v: %v", ng.id, q, err)
			}
			if got, w := mustJSON(t, a), mustJSON(t, want[i]); got != w {
				t.Errorf("simulated %s %+v:\n got  %s\n want %s", ng.id, q, got, w)
			}
		}
		for i, q := range ng.qs {
			p, err := planarflow.Prepare(ng.g)
			if err != nil {
				t.Fatal(err)
			}
			if a, err := p.Do(e.ctx, q); err != nil || !samePayload(a, want[i]) {
				t.Errorf("fresh %s %+v: %+v (%v), want %+v", ng.id, q, a, err, want[i])
			}
		}
		// One concurrent batch of the whole table: its warmup pass leaves
		// no Build on any answer.
		p, err := planarflow.Prepare(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		answers, err := p.DoBatch(e.ctx, ng.qs, planarflow.BatchOptions{Workers: 4})
		if err != nil || len(answers) != len(ng.qs) {
			t.Fatalf("DoBatch %s: %d answers, %v", ng.id, len(answers), err)
		}
		for i, a := range answers {
			if a.Err != nil || a.Kind != ng.qs[i].Kind || a.Rounds.Build != 0 || !samePayload(a, want[i]) {
				t.Errorf("DoBatch %s %+v: %+v, want %+v", ng.id, ng.qs[i], a, want[i])
			}
		}
		undirected, err := e.shared[ng.id].DistanceOracle()
		if err != nil {
			t.Fatal(err)
		}
		directed, err := e.shared[ng.id].DirectedDistanceOracle()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range ng.qs {
			var v int64
			switch q.Kind {
			case planarflow.QDist:
				v, err = undirected.Dist(q.U, q.V)
			case planarflow.QDirectedDist:
				v, err = directed.Dist(q.U, q.V)
			case planarflow.QDualDist:
				v, err = undirected.DualDist(q.U, q.V)
			default:
				continue
			}
			if err != nil || v != want[i].Value {
				t.Errorf("oracle %s %+v: %d (%v), want %d", ng.id, q, v, err, want[i].Value)
			}
		}
	}
}

// restored runs the table on a bundle restored from the decode bundle's
// snapshot, which arrives with every substrate and builds nothing, then
// has four goroutines query it and the decode bundle at once.
func (e *netEnv) restored(t *testing.T) {
	restored := map[string]*planarflow.PreparedGraph{}
	for _, ng := range e.graphs {
		var snap bytes.Buffer
		if err := e.shared[ng.id].Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		p, err := planarflow.RestorePrepared(ng.g, &snap)
		if err != nil {
			t.Fatal(err)
		}
		before, after := e.shared[ng.id].Stats(), p.Stats()
		if len(after.Substrates) != len(before.Substrates) || after.BuildRounds != before.BuildRounds {
			t.Fatalf("%s restored %d substrates, %d build rounds; want %d, %d", ng.id,
				len(after.Substrates), after.BuildRounds, len(before.Substrates), before.BuildRounds)
		}
		for i, q := range ng.qs {
			a, err := p.Do(e.ctx, q)
			if err != nil || a.Rounds.Build != 0 || !samePayload(a, e.ref[ng.id][i]) {
				t.Errorf("restored %s %+v: %+v (%v), want %+v", ng.id, q, a, err, e.ref[ng.id][i])
				continue
			}
			// Bit-identical, per-phase rounds included, to the same query
			// warm on the bundle the snapshot came from.
			warm, err := e.shared[ng.id].Do(e.ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustJSON(t, a), mustJSON(t, warm); got != want {
				t.Errorf("restored %s %+v:\n got  %s\n want %s", ng.id, q, got, want)
			}
		}
		if got := len(p.Stats().Substrates); got != len(before.Substrates) {
			t.Fatalf("%s: restored bundle grew to %d substrates", ng.id, got)
		}
		restored[ng.id] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ng := range e.graphs {
				for _, p := range []*planarflow.PreparedGraph{restored[ng.id], e.shared[ng.id]} {
					for i, q := range ng.qs {
						a, err := p.Do(e.ctx, q)
						if err != nil || a.Rounds.Build != 0 || !samePayload(a, e.ref[ng.id][i]) {
							t.Errorf("concurrent %s %+v: %+v (%v)", ng.id, q, a, err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// startServing boots the serving routes and registers every graph on
// each: three daemons, one per transport (the HTTP one with a disk tier a
// second store restarts from), that second store, a three-replica fleet
// routing over the wire, and two fleet front binaries.
func (e *netEnv) startServing(t *testing.T) {
	spill := t.TempDir()
	e.http = startDaemon(t, store.Config{SpillDir: spill})
	e.tcp = startDaemon(t, store.Config{})
	e.uds = startDaemon(t, store.Config{})
	e.restarted = store.New(store.Config{SpillDir: spill})
	e.reps = make([]*fleet.Replica, 3)
	members := make([]fleet.Member, len(e.reps))
	fleetDir := t.TempDir()
	for i := range e.reps {
		r, err := fleet.StartReplica(fleet.ReplicaConfig{
			Name: fmt.Sprintf("r%d", i), Store: store.Config{SpillDir: fleetDir}, Wire: true, Logger: quietLog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		e.reps[i], members[i] = r, r.Member()
	}
	fc, err := fleet.New(members, fleet.Options{Wire: true, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	e.fc = fc
	e.fronts = startFronts(t)

	regs := []flowd.RegisterRequest{{ID: negID, Spec: negSpec}}
	for _, ng := range e.graphs {
		regs = append(regs, flowd.RegisterRequest{ID: ng.id, Spec: ng.spec})
	}
	for _, reg := range regs {
		for _, d := range []*daemon{e.http, e.tcp, e.uds} {
			if _, err := d.c.Register(e.ctx, reg.ID, reg.Spec); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.restarted.RegisterSpec(reg.ID, reg.Spec); err != nil {
			t.Fatal(err)
		}
		if err := e.fc.Register(e.ctx, reg.ID, reg.Spec); err != nil {
			t.Fatal(err)
		}
	}
	// The fronts carry the refusal rows, which name the grid and the
	// negative-weight graph.
	for _, f := range e.fronts {
		for _, reg := range regs[:2] {
			if st := post(t, f.url, "/v1/graphs", mustJSON(t, reg)); st != http.StatusOK {
				t.Fatalf("%s register %s: status %d", f.name, reg.ID, st)
			}
		}
	}
}

// flowd replays the table cold to warm on each daemon, over HTTP, TCP and
// UDS: the three agree with the decode route down to the Build rounds,
// and with each other on every hit bit. Then the table goes again as one
// batch over each transport.
func (e *netEnv) flowd(t *testing.T) {
	for _, ng := range e.graphs {
		for i, q := range ng.qs {
			req := reqOf(ng.id, q)
			h, err := e.http.c.Query(e.ctx, req)
			if err != nil {
				t.Fatalf("http %s %+v: %v", ng.id, q, err)
			}
			if got, want := carriedOfResponse(h), carriedOfAnswer(e.ref[ng.id][i]); !reflect.DeepEqual(got, want) || h.Hit != (i > 0) {
				t.Errorf("http %s %+v: %+v hit=%v, want %+v", ng.id, q, got, h.Hit, want)
			}
			for name, wc := range map[string]*flowd.WireClient{"tcp": e.tcp.tcp, "uds": e.uds.uds} {
				got, err := wc.Query(e.ctx, req)
				if err != nil {
					t.Fatalf("%s %s %+v: %v", name, ng.id, q, err)
				}
				if got.Hit != h.Hit || !reflect.DeepEqual(carriedOfResponse(got), carriedOfResponse(h)) {
					t.Errorf("%s %s %+v: %+v, http %+v", name, ng.id, q, got, h)
				}
			}
		}
		hb, err := e.http.c.QueryBatch(e.ctx, batchOf(ng.id, ng.qs))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.tcp.tcp.QueryBatch(e.ctx, batchOf(ng.id, ng.qs))
		if err != nil {
			t.Fatal(err)
		}
		ub, err := e.uds.uds.QueryBatch(e.ctx, batchOf(ng.id, ng.qs))
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]*flowd.BatchResponse{"http batch": hb, "tcp batch": tb, "uds batch": ub} {
			if len(b.Results) != len(ng.qs) || !b.Hit {
				t.Fatalf("%s %s: %d results, hit=%v", name, ng.id, len(b.Results), b.Hit)
			}
			for i := range b.Results {
				r := &b.Results[i]
				want := withoutBuild(carriedOfAnswer(e.ref[ng.id][i]))
				if r.Error != "" || r.Op != string(ng.qs[i].Kind) || r.Rounds.Build != 0 || !reflect.DeepEqual(withoutBuild(carriedOfResult(r)), want) {
					t.Errorf("%s %s %+v: %+v, want %+v", name, ng.id, ng.qs[i], r, want)
				}
			}
		}
	}
}

// restart has a second store warm-restore from the HTTP daemon's disk
// tier, as a daemon booting on it does: every answer a hit, nothing built.
func (e *netEnv) restart(t *testing.T) {
	if n, err := e.http.st.SnapshotResident(); err != nil || n != len(e.graphs) {
		t.Fatalf("snapshot: %d written, %v", n, err)
	}
	for _, ng := range e.graphs {
		if ok, err := e.restarted.TryRestore(ng.id); !ok || err != nil {
			t.Fatalf("%s: warm restore %v, %v", ng.id, ok, err)
		}
		for i, q := range ng.qs {
			a, hit, err := e.restarted.Do(e.ctx, ng.id, q)
			if err != nil || !hit || a.Rounds.Build != 0 || !samePayload(a, e.ref[ng.id][i]) {
				t.Errorf("restarted store %s %+v: %+v hit=%v (%v), want %+v", ng.id, q, a, hit, err, e.ref[ng.id][i])
			}
		}
	}
	if st := e.restarted.Snapshot(); st.Builds != 0 || st.SnapshotRestores != int64(len(e.graphs)) {
		t.Fatalf("restarted store built %d, restored %d", st.Builds, st.SnapshotRestores)
	}
}

// fleet runs the table on the healthy fleet, syncs the standbys, stops
// the first graph's owner and runs it again: the standbys answer from
// peer-restored bundles and no replica builds.
func (e *netEnv) fleet(t *testing.T) {
	pass := func(name string, noBuild bool) {
		for _, ng := range e.graphs {
			for i, q := range ng.qs {
				r, err := e.fc.Query(e.ctx, reqOf(ng.id, q))
				if err != nil {
					t.Fatalf("%s %s %+v: %v", name, ng.id, q, err)
				}
				got, want := carriedOfResponse(r), carriedOfAnswer(e.ref[ng.id][i])
				if !reflect.DeepEqual(withoutBuild(got), withoutBuild(want)) || noBuild && got.Rounds.Build != 0 {
					t.Errorf("%s %s %+v: %+v, want %+v", name, ng.id, q, got, want)
				}
			}
		}
	}
	pass("fleet", false)
	if n, err := e.fc.SyncStandby(e.ctx); err != nil || n == 0 {
		t.Fatalf("standby sync: %d, %v", n, err)
	}
	owner, _ := e.fc.Owner(e.graphs[0].id)
	builds := map[string]int64{}
	for _, r := range e.reps {
		if r.Name == owner {
			r.Stop()
		}
		builds[r.Name] = r.Store.Snapshot().Builds
	}
	pass("fleet after failover", true)
	for _, r := range e.reps {
		if got := r.Store.Snapshot().Builds; got != builds[r.Name] {
			t.Errorf("replica %s built after the failover: %d -> %d", r.Name, builds[r.Name], got)
		}
	}
	if s := e.fc.Stats(); s.Failovers == 0 {
		t.Fatalf("no failover: %+v", s)
	}
}

// refusal is one input class: a query some route can carry and every
// route must refuse in one class.
type refusal struct {
	name   string
	graph  string
	q      planarflow.Query
	want   error // the library's or the store's sentinel
	status int   // the HTTP class
	// request marks a refusal by the request rule (Query.Validate,
	// store.CheckID): a serving batch refuses the whole request. Otherwise
	// the graph refuses, a batch entry at a time.
	request bool
}

// refusalRows are the query input classes, on the grid and on the
// negative-weight graph.
func refusalRows(grid *netGraph) []refusal {
	n, f := grid.g.N(), grid.g.NumFaces()
	apart := [2]int{-1, -1} // a pair with no common face
	for s := 0; s < n && apart[0] < 0; s++ {
		for u := n - 1; u > s; u-- {
			if !grid.g.SharedFace(s, u) {
				apart = [2]int{s, u}
				break
			}
		}
	}
	id := grid.id
	rows := []refusal{
		{"vertex out of range", id, planarflow.DistQuery(0, n), planarflow.ErrVertexRange, 400, false},
		{"maxflow vertex out of range", id, planarflow.MaxFlowQuery(0, n+3), planarflow.ErrVertexRange, 400, false},
		{"stflow vertex out of range", id, planarflow.STFlowQuery(n, 0, 0), planarflow.ErrVertexRange, 400, false},
		{"face out of range", id, planarflow.DualDistQuery(0, f), planarflow.ErrFaceRange, 400, false},
		{"source face out of range", id, planarflow.DualSSSPQuery(f), planarflow.ErrFaceRange, 400, false},
		{"maxflow s=t", id, planarflow.MaxFlowQuery(3, 3), planarflow.ErrSameVertex, 400, false},
		{"minstcut s=t", id, planarflow.MinSTCutQuery(3, 3), planarflow.ErrSameVertex, 400, false},
		{"stflow s=t", id, planarflow.STFlowQuery(2, 2, 0), planarflow.ErrSameVertex, 400, false},
		{"stcut s=t", id, planarflow.STCutQuery(2, 2, 0.25), planarflow.ErrSameVertex, 400, false},
		{"stflow no common face", id, planarflow.STFlowQuery(apart[0], apart[1], 0), planarflow.ErrSameFaceRequired, 400, false},
		{"stcut no common face", id, planarflow.STCutQuery(apart[0], apart[1], 0.25), planarflow.ErrSameFaceRequired, 400, false},
		{"unknown graph", "nope", planarflow.DistQuery(0, 1), store.ErrUnknownGraph, 404, false},
		{"unknown kind", id, planarflow.Query{Kind: "warp"}, planarflow.ErrUnknownQueryKind, 400, true},
		{"negative vertex", id, planarflow.DistQuery(-1, 0), planarflow.ErrVertexRange, 400, true},
		{"negative s", id, planarflow.MaxFlowQuery(-1, 2), planarflow.ErrVertexRange, 400, true},
		{"negative face", id, planarflow.DualDistQuery(0, -2), planarflow.ErrFaceRange, 400, true},
		{"negative source", id, planarflow.DualSSSPQuery(-1), planarflow.ErrFaceRange, 400, true},
		{"257-byte graph id", strings.Repeat("g", store.MaxIDLen+1), planarflow.DistQuery(0, 1), store.ErrBadID, 400, true},
		{"5000-byte graph id", strings.Repeat("g", 5000), planarflow.DistQuery(0, 1), store.ErrBadID, 400, true},
		{"girth on negative weights", negID, planarflow.GirthQuery(), planarflow.ErrNonPositiveWeight, 400, false},
		{"globalmincut on negative weights", negID, planarflow.GlobalMinCutQuery(), planarflow.ErrNegativeWeight, 400, false},
		{"dirgirth on negative weights", negID, planarflow.DirectedGirthQuery(), planarflow.ErrNegativeWeight, 400, false},
		{"dist on negative weights", negID, planarflow.DistQuery(0, 5), planarflow.ErrNegativeCycle, 400, false},
	}
	// eps outside [0, 1), on a query of every kind the table answers.
	for _, k := range planarflow.QueryKinds {
		var q planarflow.Query
		for _, tq := range grid.qs {
			if tq.Kind == k {
				q = tq
				break
			}
		}
		for _, eps := range []float64{1, -0.5, math.NaN()} {
			q.Eps = eps
			rows = append(rows, refusal{fmt.Sprintf("%s eps=%v", k, eps), id, q, planarflow.ErrEpsilonRange, 400, true})
		}
	}
	return rows
}

// refusals sends every query input class down every route that can carry
// it: the library (decode, simulated, DoBatch) where it names a graph the
// library holds, the store, flowd over HTTP, TCP and UDS and in both
// batches, the fleet, and both fronts. JSON cannot carry a NaN eps, so
// those rows skip the HTTP carriers.
func (e *netEnv) refusals(t *testing.T) {
	grid := e.graphs[0]
	neg, err := negSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pNeg, err := planarflow.Prepare(neg)
	if err != nil {
		t.Fatal(err)
	}
	lib := map[string]*planarflow.PreparedGraph{grid.id: e.shared[grid.id], negID: pNeg}
	for _, r := range refusalRows(grid) {
		jsonOK := !math.IsNaN(r.q.Eps)
		req := reqOf(r.graph, r.q)
		var libMsg string
		if p := lib[r.graph]; p != nil {
			_, err := p.Do(e.ctx, r.q)
			if !errors.Is(err, r.want) {
				t.Errorf("%s: library %v, want %v", r.name, err, r.want)
			}
			if err != nil {
				libMsg = err.Error()
			}
			if _, err := p.Do(e.ctx, r.q.WithSimulated()); !errors.Is(err, r.want) || err != nil && err.Error() != libMsg {
				t.Errorf("%s: simulated %v, decode %q", r.name, err, libMsg)
			}
			answers, _ := p.DoBatch(e.ctx, []planarflow.Query{r.q}, planarflow.BatchOptions{})
			if !errors.Is(answers[0].Err, r.want) {
				t.Errorf("%s: DoBatch %v, want %v", r.name, answers[0].Err, r.want)
			}
		}
		if _, _, err := e.restarted.Do(e.ctx, r.graph, r.q); !errors.Is(err, r.want) {
			t.Errorf("%s: store %s, want %v", r.name, brief(err), r.want)
		}
		if jsonOK {
			body := mustJSON(t, req)
			for _, tg := range e.httpTargets() {
				if st := post(t, tg.url, "/v1/query", body); st != r.status {
					t.Errorf("%s: %s %d, want %d", r.name, tg.name, st, r.status)
				}
			}
		}
		for name, wc := range map[string]*flowd.WireClient{"tcp": e.tcp.tcp, "uds": e.uds.uds} {
			_, err := wc.Query(e.ctx, req)
			var se *flowd.StatusError
			if !errors.As(err, &se) || se.Status != wireStatus[r.status] {
				t.Errorf("%s: %s %s, want %v", r.name, name, brief(err), wireStatus[r.status])
			}
		}
		if _, err := e.fc.Query(e.ctx, req); httpClassOf(err) != r.status {
			t.Errorf("%s: fleet %s, want %d", r.name, brief(err), r.status)
		}
		// A batch refuses a request-rule failure whole, and a graph's
		// refusal in its entry with the library's message.
		checkBatch := func(name string, resp *flowd.BatchResponse, err error) {
			switch {
			case r.request || r.status != http.StatusBadRequest:
				if httpClassOf(err) != r.status {
					t.Errorf("%s: %s %s, want %d", r.name, name, brief(err), r.status)
				}
			case err != nil || len(resp.Results) != 1:
				t.Errorf("%s: %s %+v, %v", r.name, name, resp, err)
			case resp.Results[0].Error == "" || libMsg != "" && resp.Results[0].Error != libMsg:
				t.Errorf("%s: %s entry error %q, library %q", r.name, name, resp.Results[0].Error, libMsg)
			}
		}
		batch := batchOf(r.graph, []planarflow.Query{r.q})
		if jsonOK {
			resp, err := e.http.c.QueryBatch(e.ctx, batch)
			checkBatch("http batch", resp, err)
		}
		resp, err := e.tcp.tcp.QueryBatch(e.ctx, batch)
		checkBatch("wire batch", resp, err)
	}

	// Bodies with trailing data after the JSON object.
	for path, body := range map[string]string{
		"/v1/query":  mustJSON(t, reqOf(grid.id, planarflow.DistQuery(0, 1))),
		"/v1/batch":  mustJSON(t, batchOf(grid.id, []planarflow.Query{planarflow.GirthQuery()})),
		"/v1/graphs": mustJSON(t, flowd.RegisterRequest{ID: "late", Spec: grid.spec}),
	} {
		for _, tg := range e.httpTargets() {
			if st := post(t, tg.url, path, body+" x"); st != http.StatusBadRequest {
				t.Errorf("trailing data on %s %s: %d, want 400", tg.name, path, st)
			}
		}
	}
}

// registrations sends each register input class to every route that
// registers: the store, flowd over HTTP, the fleet and both fronts; the
// library refuses the over-weight spec's graph at Prepare.
func (e *netEnv) registrations(t *testing.T) {
	grid := e.graphs[0]
	over, err := overWeightSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planarflow.Prepare(over); !errors.Is(err, planarflow.ErrWeightRange) {
		t.Errorf("spec past the weight contract: library %v, want %v", err, planarflow.ErrWeightRange)
	}
	for _, r := range []struct {
		name   string
		id     string
		spec   store.GraphSpec
		want   error
		status int
	}{
		{"duplicate register", grid.id, grid.spec, store.ErrDuplicateID, http.StatusConflict},
		{"257-byte register id", strings.Repeat("g", store.MaxIDLen+1), grid.spec, store.ErrBadID, http.StatusBadRequest},
		{"5000-byte register id", strings.Repeat("g", 5000), grid.spec, store.ErrBadID, http.StatusBadRequest},
		{"spec past the weight contract", "heavy", overWeightSpec, planarflow.ErrWeightRange, http.StatusBadRequest},
		{"spec of no kind", "nokind", store.GraphSpec{Kind: "nope"}, store.ErrBadSpec, http.StatusBadRequest},
	} {
		if _, err := e.restarted.RegisterSpec(r.id, r.spec); !errors.Is(err, r.want) {
			t.Errorf("%s: store %s, want %v", r.name, brief(err), r.want)
		}
		body := mustJSON(t, flowd.RegisterRequest{ID: r.id, Spec: r.spec})
		for _, tg := range e.httpTargets() {
			if st := post(t, tg.url, "/v1/graphs", body); st != r.status {
				t.Errorf("%s: %s %d, want %d", r.name, tg.name, st, r.status)
			}
		}
		if err := e.fc.Register(e.ctx, r.id, r.spec); httpClassOf(err) != r.status {
			t.Errorf("%s: fleet %s, want %d", r.name, brief(err), r.status)
		}
	}
}

// httpTargets are the HTTP carriers of a JSON body: the flowd daemon and
// both fronts.
func (e *netEnv) httpTargets() []target {
	return append([]target{{"http", e.http.url}}, e.fronts...)
}
