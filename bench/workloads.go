package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"

	"planarflow"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// env is what a run fixes for every workload: the client count (equal to
// GOMAXPROCS, so the serving windows are CPU-bound and never
// oversubscribed) and a scratch directory inside the checkout.
type env struct {
	clients int
	tmp     string
}

// call identifies one operation to an instance: which client issues it,
// that client's running operation number, and the op's index in the
// plan.
type call struct {
	client, seq, idx int
}

// instance is a system set up to serve one workload. do executes one
// operation and reduces its answer for the checker; spans are recorded
// through tr when a traced pass sets it.
type instance struct {
	do    func(ctx context.Context, c call) (reply, error)
	store *store.Store // nil when the workload has no store
	tr    *tracer
	close func()
}

// workload is one closed-loop traffic mix: every client sends its next
// operation only after the previous one returned.
type workload struct {
	name      string
	oneCaller bool  // one client instead of one per core
	full      shape // the measured configuration
	tiny      shape // the smoke test's: same code, graphs that build in milliseconds
	setup     func(ctx context.Context, e env, p *plan) (*instance, error)
}

func (w *workload) clients(e env) int {
	if w.oneCaller {
		return 1
	}
	return e.clients
}

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

var serveMix = []share{{planarflow.QDist, 60}, {planarflow.QDualDist, 20}, {planarflow.QDualSSSP, 20}}

var workloads = []*workload{
	{
		name:      "solve_exact",
		oneCaller: true,
		full: shape{gridKind: "grid", grids: 8, gridSide: 12, tris: 8, triN: 100, ops: 4096, pass: 256,
			mix: []share{{planarflow.QMaxFlow, 50}, {planarflow.QMinSTCut, 30}, {planarflow.QSTFlow, 20}}},
		tiny: shape{gridKind: "grid", grids: 1, gridSide: 4, tris: 1, triN: 12, ops: 64, pass: 16,
			mix: []share{{planarflow.QMaxFlow, 50}, {planarflow.QMinSTCut, 30}, {planarflow.QSTFlow, 20}}},
		setup: setupSolve,
	},
	{
		name:  "serve_resident",
		full:  shape{gridKind: "grid", grids: 4, gridSide: 20, tris: 4, triN: 400, zipf: 1.1, mix: serveMix, ops: 8192, pass: 8192},
		tiny:  shape{gridKind: "grid", grids: 1, gridSide: 4, tris: 1, triN: 12, zipf: 1.1, mix: serveMix, ops: 256, pass: 64},
		setup: setupResident,
	},
	{
		name: "serve_churn",
		full: shape{gridKind: "grid", grids: 8, gridSide: 16, tris: 8, triN: 400, zipf: 0.5, mix: serveMix, ops: 8192, pass: 512,
			budget: 38 << 20},
		tiny: shape{gridKind: "grid", grids: 2, gridSide: 4, tris: 2, triN: 12, zipf: 0.5, mix: serveMix, ops: 256, pass: 32,
			budget: 48 << 10},
		setup: setupChurn,
	},
	{
		name: "cold_build",
		full: shape{gridKind: "snake", grids: 4, gridSide: 12, tris: 20, triN: 100, ops: 24, pass: 96,
			mix: []share{{opBuild, 100}}, budget: 48 << 20, background: 12},
		tiny: shape{gridKind: "snake", grids: 1, gridSide: 4, tris: 2, triN: 12, ops: 3, pass: 6,
			mix: []share{{opBuild, 100}}, budget: 64 << 10, background: 2},
		setup: setupCold,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func graphID(i int) string { return fmt.Sprintf("g%02d", i) }

// requests renders the stream as flowd requests once, in set-up, so the
// hot loop of a serving workload builds nothing.
func requests(ops []op) []flowd.QueryRequest {
	reqs := make([]flowd.QueryRequest, len(ops))
	for i := range ops {
		o := &ops[i]
		q := o.query()
		reqs[i] = flowd.QueryRequest{Graph: graphID(o.Graph), Op: string(q.Kind), U: q.U, V: q.V, Source: q.Source}
	}
	return reqs
}

// served reduces a flowd response to the checker's form.
func served(resp *flowd.QueryResponse) reply {
	r := reply{hit: resp.Hit}
	if r.val[0] = resp.Value; resp.Dist != nil {
		r.val[0] = hashDist(resp.Dist)
	}
	return r
}

// setupSolve prepares and fully warms every graph for one library
// caller.
func setupSolve(ctx context.Context, _ env, p *plan) (*instance, error) {
	pgs := make([]*planarflow.PreparedGraph, len(p.Specs))
	for i, sp := range p.Specs {
		g, err := sp.Build()
		if err != nil {
			return nil, err
		}
		if pgs[i], err = planarflow.Prepare(g); err != nil {
			return nil, err
		}
		if err := pgs[i].Warm(ctx); err != nil {
			return nil, err
		}
	}
	in := &instance{close: func() {}}
	in.do = func(ctx context.Context, c call) (reply, error) {
		o := &p.Ops[c.idx]
		in.tr.begin("planarflow.Do")
		a, err := pgs[o.Graph].Do(ctx, o.query())
		in.tr.end()
		if err != nil {
			return reply{}, err
		}
		return reply{val: [buildAnswers]int64{a.Value}, hit: true, ans: a}, nil
	}
	return in, nil
}

// daemon is an in-process flowd over its own store and metric registry.
func daemon(cfg store.Config) (*store.Store, *flowd.Server) {
	st := store.New(cfg)
	return st, flowd.NewServerWith(st, flowd.ServerOptions{Logger: quietLog(), Registry: obs.NewRegistry()})
}

// serveWire serves the daemon's wire plane on ln until the wire server
// is closed; the returned function waits for the serving goroutine.
func serveWire(srv *flowd.Server, ln net.Listener) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Wire().Serve(ln) // ErrServerClosed at close; nothing to act on
	}()
	return func() { <-done }
}

// setupResident registers and warms every graph, then serves them on
// the binary wire plane over a Unix socket with one pooled connection
// per client and no coalescer: each client waits for its own reply.
func setupResident(ctx context.Context, e env, p *plan) (*instance, error) {
	st, srv := daemon(store.Config{})
	for i, sp := range p.Specs {
		if _, err := st.RegisterSpec(graphID(i), sp); err != nil {
			return nil, err
		}
		if err := st.Warm(ctx, graphID(i)); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(e.tmp, "resident")
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "wire.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	wait := serveWire(srv, ln)
	wc := flowd.NewWireClient("unix", sock, flowd.WireOptions{PoolSize: e.clients})
	reqs := requests(p.Ops)
	in := &instance{store: st}
	in.close = func() {
		wc.Close()
		srv.Wire().Close()
		wait()
		os.RemoveAll(dir)
	}
	if err := wc.Ping(ctx); err != nil {
		in.close()
		return nil, err
	}
	in.do = func(ctx context.Context, c call) (reply, error) {
		in.tr.begin("flowd.WireClient.Query")
		resp, err := wc.Query(ctx, reqs[c.idx])
		in.tr.end()
		if err != nil {
			return reply{}, err
		}
		return served(resp), nil
	}
	return in, nil
}

// setupChurn serves twice the graphs the budget holds over keep-alive
// HTTP/JSON with a disk tier. It warms every graph and persists what is
// still resident, so each miss in the window restores from disk instead
// of rebuilding.
func setupChurn(ctx context.Context, e env, p *plan) (*instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "churn")
	if err != nil {
		return nil, err
	}
	st, srv := daemon(store.Config{MaxBytes: p.sh.budget, SpillDir: dir})
	hs := httptest.NewServer(srv)
	cl := flowd.NewClient(hs.URL)
	in := &instance{store: st}
	in.close = func() {
		hs.Close()
		st.FlushSpills()
		os.RemoveAll(dir)
	}
	for i, sp := range p.Specs {
		if _, err := cl.RegisterWarm(ctx, graphID(i), sp); err != nil {
			in.close()
			return nil, err
		}
	}
	if _, err := st.SnapshotResident(); err != nil {
		in.close()
		return nil, err
	}
	st.FlushSpills()
	reqs := requests(p.Ops)
	in.do = func(ctx context.Context, c call) (reply, error) {
		in.tr.begin("flowd.Client.Query")
		resp, err := cl.Query(ctx, reqs[c.idx])
		in.tr.end()
		if err != nil {
			return reply{}, err
		}
		return served(resp), nil
	}
	return in, nil
}

// setupCold fills the store's budget with a warmed background set, so
// every build in the window also pays an eviction.
func setupCold(ctx context.Context, _ env, p *plan) (*instance, error) {
	st := store.New(store.Config{MaxBytes: p.sh.budget, MaxGraphs: -1})
	for i, sp := range p.Background {
		id := fmt.Sprintf("bg%02d", i)
		if _, err := st.RegisterSpec(id, sp); err != nil {
			return nil, err
		}
		if err := st.Warm(ctx, id); err != nil {
			return nil, err
		}
	}
	in := &instance{store: st, close: func() {}}
	in.do = func(ctx context.Context, c call) (reply, error) {
		o := &p.Ops[c.idx]
		id := fmt.Sprintf("n%d-%d", c.client, c.seq)
		in.tr.begin("store.RegisterSpec")
		_, err := st.RegisterSpec(id, p.Specs[o.Graph])
		in.tr.end()
		if err != nil {
			return reply{}, err
		}
		var r reply
		for k, q := range o.firstAnswers() {
			in.tr.begin("store.Do." + string(q.Kind))
			a, _, err := st.Do(ctx, id, q)
			in.tr.end()
			if err != nil {
				return reply{}, err
			}
			if r.val[k] = a.Value; q.Kind == planarflow.QDualSSSP {
				r.val[k] = hashDist(a.Dist)
			}
		}
		return r, nil
	}
	return in, nil
}
