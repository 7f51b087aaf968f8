package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"planarflow"
	"planarflow/internal/artifact"
	"planarflow/internal/core"
	"planarflow/internal/decode"
	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/ledger"
	"planarflow/internal/obs"
	"planarflow/internal/planar"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

const (
	solverOps = 4    // per family, per probe graph
	rungOps   = 1024 // requests issued at every rung of the serving ladder
	microOps  = 1 << 14
	allocOps  = 128 // calls bracketed by ReadMemStats to count allocations
)

// planarOf mirrors store.GraphSpec.Build on the internal graph type: the
// layer probes call artifact, core and decode directly, and the public
// Graph does not give its embedding back.
func planarOf(sp store.GraphSpec) *planar.Graph {
	var g *planar.Graph
	switch sp.Kind {
	case "grid":
		g = planar.Grid(sp.Rows, sp.Cols)
	case "snake":
		g = planar.BoustrophedonGrid(sp.Rows, sp.Cols)
	default:
		g = planar.StackedTriangulation(sp.N, planar.NewRand(sp.Seed))
	}
	return planar.WithRandomWeights(g, planar.NewRand(sp.Seed), sp.WLo, sp.WHi, sp.CLo, sp.CHi)
}

// probeSpecs picks one graph of each family from the workload's own set.
func probeSpecs(p *plan) []store.GraphSpec {
	var out []store.GraphSpec
	seen := map[string]bool{}
	for _, sp := range p.Specs {
		if !seen[sp.Kind] {
			seen[sp.Kind] = true
			out = append(out, sp)
		}
	}
	return out
}

// timed runs fn inside a span of the given layer.
func timed(tr *tracer, layer string, fn func() error) error {
	tr.begin(layer)
	err := fn()
	tr.end()
	return err
}

// allocsPer counts heap allocations per call of fn, reading the
// allocator's counter immediately around each call so what the harness
// allocates to prepare the call is not counted.
func allocsPer(n int, prep func(i int), fn func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		runtime.ReadMemStats(&before)
		err := fn(i)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(n), nil
}

// probeLayers times calls into each layer's public functions on the
// workload's own graphs and adds the layer metrics to m. The build path
// is nested under one span per graph; the serving path is a ladder, the
// same requests issued at each boundary from the library outward, and a
// layer's self time is its rung minus the rung below (medians).
func probeLayers(ctx context.Context, tr *tracer, e env, p *plan, m map[string]metric) error {
	specs := probeSpecs(p)
	rng := planar.NewRand(p.Seed ^ 0x6c6179657273) // the probes' own stream: "layers"
	if err := probeBuild(tr, specs, rng, m); err != nil {
		return err
	}
	return probeServing(ctx, tr, e, specs, rng, m)
}

// probeBuild covers the build path and the solvers: for each probe graph
// one bench.build span with generation, the BDD, both labelings and the
// first answers nested under it, then a few exact and approximate flow
// solves on the substrates just built.
func probeBuild(tr *tracer, specs []store.GraphSpec, rng *rand.Rand, m map[string]metric) error {
	var levels, bags, bddRounds, primalRounds, dualRounds, primalBytes, dualBytes float64
	var iters, flowRounds, solves float64
	var decodeAllocs float64
	for _, sp := range specs {
		tr.next()
		tr.begin("bench.build")
		var g *planar.Graph
		_ = timed(tr, "planar.gen", func() error { g = planarOf(sp); return nil })
		art := artifact.New(g)
		eng := decode.New()
		ledB, ledP, ledD := ledger.New(), ledger.New(), ledger.New()
		err := timed(tr, "bdd.build", func() error {
			tree, err := art.Tree(0, ledB)
			if err == nil {
				levels, bags = levels+float64(tree.Depth), bags+float64(len(tree.Bags))
			}
			return err
		})
		if err == nil {
			err = timed(tr, "primallabel.build", func() error {
				_, err := art.PrimalLabels(artifact.Undirected, 0, ledP)
				return err
			})
		}
		if err == nil {
			err = timed(tr, "duallabel.build", func() error {
				_, err := art.DualLabels(artifact.Undirected, 0, ledD)
				return err
			})
		}
		src := rng.IntN(g.Faces().NumFaces())
		if err == nil {
			err = timed(tr, "decode.dualsssp_first", func() error {
				_, err := eng.DualSSSP(art, src, 0, ledger.New())
				return err
			})
		}
		if err == nil {
			err = timed(tr, "core.girth_first", func() error {
				_, err := eng.Girth(art, ledger.New())
				return err
			})
		}
		if err == nil {
			err = timed(tr, "core.globalmincut_first", func() error {
				_, err := eng.GlobalMinCut(art, core.Options{}, ledger.New())
				return err
			})
		}
		tr.end()
		if err != nil {
			return fmt.Errorf("build probe %s: %w", sp.Kind, err)
		}
		// The labelings' own rounds exclude the BDD they triggered: each
		// was built after its prerequisite, into its own ledger.
		bddRounds += float64(ledB.Total())
		primalRounds += float64(ledP.Total())
		dualRounds += float64(ledD.Total())
		for _, s := range art.Stats().Substrates {
			switch s.Kind {
			case "primal-label":
				primalBytes += float64(s.Bytes)
			case "dual-label":
				dualBytes += float64(s.Bytes)
			}
		}

		for i := 0; i < solverOps; i++ {
			s := rng.IntN(g.N())
			t := (s + 1 + rng.IntN(g.N()-1)) % g.N()
			led := ledger.New()
			if err := timed(tr, "core.maxflow", func() error {
				res, err := core.MaxFlow(art, s, t, core.Options{}, led)
				if err == nil {
					iters, solves = iters+float64(res.Iterations), solves+1
				}
				return err
			}); err != nil {
				return err
			}
			flowRounds += float64(led.Total())
			if err := timed(tr, "core.minstcut", func() error {
				_, err := core.MinSTCut(art, s, t, core.Options{}, ledger.New())
				return err
			}); err != nil {
				return err
			}
			// An edge's endpoints always share a face.
			ed := g.Edge(rng.IntN(g.M()))
			if err := timed(tr, "core.stflow", func() error {
				_, err := core.STPlanarMaxFlow(art, ed.U, ed.V, 0.1, ledger.New())
				return err
			}); err != nil {
				return err
			}
		}

		// Decode hits on the warm artifact: the same dual source again, and
		// point distances from the primal labeling.
		var led *ledger.Ledger
		repeat := func(int) error {
			_, err := eng.DualSSSP(art, src, 0, led)
			return err
		}
		for i := 0; i < rungOps; i++ {
			led = ledger.New()
			if err := timed(tr, "decode.dualsssp_repeat", func() error { return repeat(i) }); err != nil {
				return err
			}
			u, v := rng.IntN(g.N()), rng.IntN(g.N())
			if err := timed(tr, "decode.dist", func() error {
				la, err := art.PrimalLabels(artifact.Undirected, 0, led)
				if err == nil {
					la.Dist(u, v)
				}
				return err
			}); err != nil {
				return err
			}
		}
		a, err := allocsPer(allocOps, func(int) { led = ledger.New() }, repeat)
		if err != nil {
			return err
		}
		decodeAllocs += a
	}

	n := float64(len(specs))
	buildMS := func(layer string) float64 { return mean(tr.durations(layer)) / 1e6 }
	m["planar.gen_ms"] = metric{buildMS("planar.gen"), "ms"}
	m["bdd.build_ms"] = metric{buildMS("bdd.build"), "ms"}
	m["bdd.levels"] = metric{levels / n, "count"}
	m["bdd.bags"] = metric{bags / n, "count"}
	m["bdd.rounds"] = metric{bddRounds / n, "count"}
	m["primallabel.build_ms"] = metric{buildMS("primallabel.build"), "ms"}
	m["primallabel.rounds"] = metric{primalRounds / n, "count"}
	m["primallabel.bytes"] = metric{primalBytes / n, "B"}
	m["duallabel.build_ms"] = metric{buildMS("duallabel.build"), "ms"}
	m["duallabel.rounds"] = metric{dualRounds / n, "count"}
	m["duallabel.ns_per_round"] = metric{mean(tr.durations("duallabel.build")) * n / dualRounds, "ns"}
	m["duallabel.bytes"] = metric{dualBytes / n, "B"}
	m["core.maxflow_ms"] = metric{buildMS("core.maxflow"), "ms"}
	m["core.maxflow_iters"] = metric{iters / solves, "count"}
	m["core.maxflow_ms_per_iter"] = metric{buildMS("core.maxflow") * solves / iters, "ms"}
	m["core.maxflow_rounds"] = metric{flowRounds / solves, "count"}
	m["core.minstcut_ms"] = metric{buildMS("core.minstcut"), "ms"}
	m["core.stflow_ms"] = metric{buildMS("core.stflow"), "ms"}
	m["core.girth_first_ms"] = metric{buildMS("core.girth_first"), "ms"}
	m["core.globalmincut_first_ms"] = metric{buildMS("core.globalmincut_first"), "ms"}
	m["decode.dualsssp_first_us"] = metric{mean(tr.durations("decode.dualsssp_first")) / 1e3, "us"}
	m["decode.dualsssp_repeat_us"] = metric{us(median(tr.durations("decode.dualsssp_repeat"))), "us"}
	m["decode.dist_us"] = metric{us(median(tr.durations("decode.dist"))), "us"}
	m["decode.allocs_per_op"] = metric{decodeAllocs / n, "allocs/op"}
	return nil
}

// probeServing is the ladder. One daemon holds the probe graphs warm;
// the same rungOps requests (the serving mix) go through the library,
// the store, the two in-process handlers, the wire plane over a Unix
// socket and TCP, HTTP, and a three-replica fleet.
func probeServing(ctx context.Context, tr *tracer, e env, specs []store.GraphSpec, rng *rand.Rand, m map[string]metric) error {
	st, srv := daemon(store.Config{})
	pgs := map[string]*planarflow.PreparedGraph{}
	var snapBytes float64
	for i, sp := range specs {
		id := graphID(i)
		if _, err := st.RegisterSpec(id, sp); err != nil {
			return err
		}
		if err := st.Warm(ctx, id); err != nil {
			return err
		}
		// The store has no budget, so the bundle it hands out stays the
		// resident one for the whole probe.
		if err := st.With(ctx, id, func(pg *planarflow.PreparedGraph, _ bool) error {
			pgs[id] = pg
			return nil
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := timed(tr, "snapshot.encode", func() error { return pgs[id].Snapshot(&buf) }); err != nil {
			return err
		}
		snapBytes += float64(buf.Len())
		if err := timed(tr, "snapshot.decode", func() error {
			_, err := planarflow.RestorePrepared(st.Graph(id), bytes.NewReader(buf.Bytes()))
			return err
		}); err != nil {
			return err
		}
	}
	m["snapshot.encode_ms"] = metric{mean(tr.durations("snapshot.encode")) / 1e6, "ms"}
	m["snapshot.decode_ms"] = metric{mean(tr.durations("snapshot.decode")) / 1e6, "ms"}
	m["snapshot.bytes_per_graph"] = metric{snapBytes / float64(len(specs)), "B"}

	// The ladder's requests: the serving mix in its exact shares, spread
	// evenly over the probe graphs.
	kinds := stratified(rng, rungOps, mixShares(serveMix))
	ops := make([]op, rungOps)
	for i := range ops {
		g := st.Graph(graphID(i % len(specs)))
		ops[i] = op{Graph: i % len(specs), Kind: serveMix[kinds[i]].kind,
			U: rng.IntN(g.N()), V: rng.IntN(g.N()), F1: rng.IntN(g.NumFaces()), F2: rng.IntN(g.NumFaces())}
	}
	reqs := requests(ops)
	bodies := make([][]byte, rungOps)
	for i := range reqs {
		var err error
		if bodies[i], err = json.Marshal(reqs[i]); err != nil {
			return err
		}
	}

	// rung issues every request through call, one span each, after an
	// unrecorded pass that fills the decode caches the rung will hit. prep
	// builds what a call needs outside its span.
	rung := func(layer string, prep func(i int), call func(i int) error) error {
		for pass := 0; pass < 2; pass++ {
			for i := range reqs {
				if prep != nil {
					prep(i)
				}
				if pass == 0 {
					if err := call(i); err != nil {
						return fmt.Errorf("%s: %w", layer, err)
					}
					continue
				}
				tr.next()
				if err := timed(tr, layer, func() error { return call(i) }); err != nil {
					return fmt.Errorf("%s: %w", layer, err)
				}
			}
		}
		return nil
	}
	library := func(i int) error {
		r := &reqs[i]
		_, err := pgs[r.Graph].Do(ctx, r.Query())
		return err
	}
	stored := func(i int) error {
		r := &reqs[i]
		_, _, err := st.Do(ctx, r.Graph, r.Query())
		return err
	}
	var rec *httptest.ResponseRecorder
	var hreq *http.Request
	prepHTTP := func(i int) {
		rec = httptest.NewRecorder()
		hreq = httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[i]))
	}
	handler := func(i int) error {
		srv.ServeHTTP(rec, hreq)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	frameJSON := func(i int) error {
		if status, body := srv.ServeFrame(ctx, wire.OpQuery, uint64(i), bodies[i]); status != wire.StatusOK {
			return fmt.Errorf("status %d: %s", status, body)
		}
		return nil
	}
	if err := rung("planarflow.Do", nil, library); err != nil {
		return err
	}
	if err := rung("store.Do", nil, stored); err != nil {
		return err
	}
	if err := rung("flowd.ServeHTTP", prepHTTP, handler); err != nil {
		return err
	}
	if err := rung("flowd.ServeFrame.json", nil, frameJSON); err != nil {
		return err
	}
	if err := rung("artifact.warm_noop", nil, func(i int) error { return pgs[reqs[i].Graph].Warm(ctx) }); err != nil {
		return err
	}

	// Transports: the same daemon behind a Unix socket, a TCP port and an
	// HTTP listener, one connection each, one request in flight.
	dir, err := os.MkdirTemp(e.tmp, "ladder")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	uln, err := net.Listen("unix", filepath.Join(dir, "wire.sock"))
	if err != nil {
		return err
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		uln.Close()
		return err
	}
	waitUnix, waitTCP := serveWire(srv, uln), serveWire(srv, tln)
	hs := httptest.NewServer(srv)
	uds := flowd.NewWireClient("unix", uln.Addr().String(), flowd.WireOptions{PoolSize: 1})
	tcp := flowd.NewWireClient("tcp", tln.Addr().String(), flowd.WireOptions{PoolSize: 1})
	hcl := flowd.NewClient(hs.URL)
	defer func() {
		uds.Close()
		tcp.Close()
		hs.Close()
		srv.Wire().Close()
		waitUnix()
		waitTCP()
	}()
	query := func(qf func(context.Context, flowd.QueryRequest) (*flowd.QueryResponse, error)) func(int) error {
		return func(i int) error {
			_, err := qf(ctx, reqs[i])
			return err
		}
	}
	if err := rung("wire.ping_uds", nil, func(int) error { return uds.Ping(ctx) }); err != nil {
		return err
	}
	before := uds.TransportStats()
	if err := rung("wire.query_uds", nil, query(uds.Query)); err != nil {
		return err
	}
	after := uds.TransportStats()
	if err := rung("wire.query_tcp", nil, query(tcp.Query)); err != nil {
		return err
	}
	if err := rung("http.query", nil, query(hcl.Query)); err != nil {
		return err
	}

	// Fleet: three in-process replicas on the wire plane, the probe graphs
	// registered through the ring.
	var replicas []*fleet.Replica
	var members []fleet.Member
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()
	for i := 0; i < 3; i++ {
		r, err := fleet.StartReplica(fleet.ReplicaConfig{Name: fmt.Sprintf("r%d", i), Wire: true, Logger: quietLog()})
		if err != nil {
			return err
		}
		replicas = append(replicas, r)
		members = append(members, r.Member())
	}
	fc, err := fleet.New(members, fleet.Options{Wire: true, WireOptions: flowd.WireOptions{PoolSize: 1}, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer fc.Close()
	for i, sp := range specs {
		if err := fc.Register(ctx, graphID(i), sp); err != nil {
			return err
		}
	}
	if err := rung("fleet.query", nil, query(fc.Query)); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < microOps; i++ {
		fc.Owner(reqs[i%len(reqs)].Graph)
	}
	m["fleet.ring_owner_ns"] = metric{float64(time.Since(t0)) / microOps, "ns"}

	// The telemetry plane's own cost: one span begun, marked and finished,
	// and one histogram observation.
	tracerUnderTest := obs.NewTracer(0, 0)
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		s := obs.NewSpan(uint64(i), "bench")
		s.MarkSince(obs.PhaseExec, t0)
		tracerUnderTest.Finish(s, time.Microsecond, "")
	}
	m["obs.span_ns"] = metric{float64(time.Since(t0)) / microOps, "ns"}
	hist := obs.NewHistogram()
	t0 = time.Now()
	for i := 0; i < microOps; i++ {
		hist.ObserveNS(int64(i))
	}
	m["obs.hist_observe_ns"] = metric{float64(time.Since(t0)) / microOps, "ns"}

	allocs := func(prep func(int), fn func(int) error) (float64, error) { return allocsPer(allocOps, prep, fn) }
	doAllocs, err := allocs(nil, library)
	if err != nil {
		return err
	}
	storeAllocs, err := allocs(nil, stored)
	if err != nil {
		return err
	}
	handlerAllocs, err := allocs(prepHTTP, handler)
	if err != nil {
		return err
	}
	wireAllocs, err := allocs(nil, query(uds.Query))
	if err != nil {
		return err
	}

	med := func(layer string) float64 { return us(median(tr.durations(layer))) }
	m["planarflow.do_us"] = metric{med("planarflow.Do"), "us"}
	m["planarflow.do_allocs"] = metric{doAllocs, "allocs/op"}
	m["store.do_us"] = metric{med("store.Do"), "us"}
	m["store.do_self_us"] = metric{med("store.Do") - med("planarflow.Do"), "us"}
	m["store.do_allocs"] = metric{storeAllocs, "allocs/op"}
	m["artifact.warm_noop_us"] = metric{med("artifact.warm_noop"), "us"}
	m["flowd.http_handler_self_us"] = metric{med("flowd.ServeHTTP") - med("store.Do"), "us"}
	m["flowd.http_handler_allocs"] = metric{handlerAllocs, "allocs/op"}
	m["flowd.serveframe_json_self_us"] = metric{med("flowd.ServeFrame.json") - med("store.Do"), "us"}
	m["flowd.wirecodec_self_us"] = metric{med("wire.query_uds") - med("wire.ping_uds") - med("store.Do"), "us"}
	m["flowd.wire_query_allocs"] = metric{wireAllocs, "allocs/op"}
	m["wire.ping_uds_us"] = metric{med("wire.ping_uds"), "us"}
	m["wire.query_uds_us"] = metric{med("wire.query_uds"), "us"}
	m["wire.query_tcp_us"] = metric{med("wire.query_tcp"), "us"}
	queries := float64(2 * rungOps) // the rung's unrecorded pass counts too
	m["wire.bytes_per_query"] = metric{float64(after.BytesIn+after.BytesOut-before.BytesIn-before.BytesOut) / queries, "B"}
	m["wire.frames_per_flush"] = metric{float64(after.FramesOut-before.FramesOut) / float64(after.Flushes-before.Flushes), "ratio"}
	m["http.query_us"] = metric{med("http.query"), "us"}
	m["http.transport_self_us"] = metric{med("http.query") - med("flowd.ServeHTTP"), "us"}
	m["fleet.hop_self_us"] = metric{med("fleet.query") - med("wire.query_tcp"), "us"}
	return nil
}
