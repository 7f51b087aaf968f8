package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// Options tunes the fleet client's routing and failure handling. The
// zero value is usable: one standby per graph, 250ms health probes. The
// ring always spreads members over DefaultVnodes points; retries back
// off between backoffBase and backoffCap with jitter drawn from a stream
// seeded by jitterSeed, and a request gets one attempt per member plus
// one; the client's span rings, slow threshold and journal take the obs
// defaults.
type Options struct {
	// Replication is how many standby replicas each graph keeps beyond
	// its owner — SyncStandby registers the graph and ships its snapshot
	// to this many ring successors (<= 0 = 1; capped at fleet size - 1).
	Replication int
	// ProbeInterval paces the health probe that watches an ejected
	// replica for recovery (0 = 250ms; < 0 disables probing — dead
	// replicas stay dead until SetAlive).
	ProbeInterval time.Duration
	// Wire attaches a binary-transport WireClient to every member that
	// advertises a wire address, routing Query/QueryBatch over it.
	Wire bool
	// WireOptions configures those transports (pool size).
	WireOptions flowd.WireOptions
}

// The retry policy: capped exponential backoff after a replica failure,
// with full jitter from a fixed-seed stream (the client is deterministic
// given the sequence of failures it sees).
const (
	backoffBase = 10 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
	jitterSeed  = 1
)

func (o *Options) withDefaults(members int) Options {
	out := *o
	if out.Replication <= 0 {
		out.Replication = 1
	}
	if out.Replication > members-1 {
		out.Replication = members - 1
	}
	if out.ProbeInterval == 0 {
		out.ProbeInterval = 250 * time.Millisecond
	}
	return out
}

// ErrNoReplicas reports a request that found every fleet member marked
// dead — there is nowhere left to route.
var ErrNoReplicas = errors.New("fleet: no alive replicas")

// Stats counts the fleet client's failure-handling events.
type Stats struct {
	Failovers    int64 `json:"failovers"`     // requests re-routed after an eject
	Ejects       int64 `json:"ejects"`        // replicas marked dead
	Recoveries   int64 `json:"recoveries"`    // replicas probed back alive
	Adoptions    int64 `json:"adoptions"`     // graphs registered+restored on a non-owner at query time
	StandbySyncs int64 `json:"standby_syncs"` // graph/standby pairs synced by SyncStandby
}

// memberState is one replica as the client sees it: the HTTP (and
// optionally wire) client plus the single-prober guard.
type memberState struct {
	m       Member
	cl      *flowd.Client
	wc      *flowd.WireClient
	probing atomic.Bool
}

// Client routes flowd requests across a fleet of replicas by consistent
// hash: each graph id maps to an owning replica; Register, Query and
// QueryBatch all follow that placement. On a transport-level
// failure the owner is ejected from the ring (epoch bump), a background
// probe watches it for recovery, and the request retries against the
// ring successor after a jittered exponential backoff. A successor that
// answers "unknown graph" for a graph the client has registered runs
// the adopt path first: re-register the cached spec, then restore the
// bundle via the peer ladder (snapshot fetch from the old owner or any
// other alive replica, then the successor's own disk tier, then cold).
type Client struct {
	ring    *Ring
	members map[string]*memberState
	order   []string
	opt     Options
	// maxAttempts is the routing retry budget per request: each attempt
	// may eject a dead replica and re-route to its successor.
	maxAttempts int

	specMu sync.Mutex
	specs  map[string]store.GraphSpec
	// syncedAt memoizes standby sync per "graph|standby" by the ring
	// epoch it ran at: a periodic SyncStandby is then a no-op until
	// membership changes, instead of re-registering (409) and re-walking
	// the restore ladder on every tick.
	syncedAt map[string]uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	// tracer holds the client's own spans: every routed call roots a
	// trace (transport "fleet", hop 0) whose children record the route
	// decision, each attempt, ejects, backoffs, probes, and adopts —
	// replicas record the downstream hops, and /fleettracez stitches.
	tracer  *obs.Tracer
	journal *obs.Journal
	spanSeq atomic.Uint64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	failovers, ejects, recoveries, adoptions, standbySyncs atomic.Int64
}

// New builds a fleet client over a static member list.
func New(members []Member, opt Options) (*Client, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: need at least one member")
	}
	names := make([]string, len(members))
	for i, m := range members {
		if m.HTTP == "" {
			return nil, fmt.Errorf("fleet: member %q has no HTTP base", m.Name)
		}
		names[i] = m.Name
	}
	o := opt.withDefaults(len(members))
	ring, err := NewRing(names, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ring:        ring,
		members:     make(map[string]*memberState, len(members)),
		order:       ring.Members(),
		opt:         o,
		maxAttempts: len(members) + 1,
		specs:       map[string]store.GraphSpec{},
		syncedAt:    map[string]uint64{},
		rng:         rand.New(rand.NewSource(jitterSeed)),
		tracer:      obs.NewTracer(obs.DefaultTraceRing, obs.DefaultSlowThreshold),
		journal:     obs.NewJournal(obs.DefaultJournalRing),
		stop:        make(chan struct{}),
	}
	for _, m := range members {
		ms := &memberState{m: m, cl: flowd.NewClient(m.HTTP)}
		if o.Wire && m.WireNet != "" {
			ms.wc = flowd.NewWireClient(m.WireNet, m.WireAddr, o.WireOptions)
			ms.cl = ms.cl.WithWireTransport(ms.wc)
		}
		c.members[m.Name] = ms
	}
	return c, nil
}

// Close stops the probes and releases every member's wire transport.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	for _, ms := range c.members {
		if ms.wc != nil {
			ms.wc.Close()
		}
	}
	return nil
}

// Ring exposes the routing ring (epoch, aliveness, placement).
func (c *Client) Ring() *Ring { return c.ring }

// Tracer exposes the client's span rings for fleet-wide stitching.
func (c *Client) Tracer() *obs.Tracer { return c.tracer }

// Journal exposes the ops event journal (ejects, re-admits, epoch
// bumps, adopts, peer restores, drains).
func (c *Client) Journal() *obs.Journal { return c.journal }

// RecordDrain journals a graceful drain of a member — called by the
// fleet front during shutdown so the journal closes the membership
// story it opened.
func (c *Client) RecordDrain(member string) {
	c.journal.Record(obs.Event{Type: obs.EventDrain, Member: member})
}

// rootSpan opens a hop-0 fleet span for one routed call. An inbound
// trace on ctx (a nested fleet call) is continued; otherwise a fresh
// trace is minted here — the fleet client is the usual trace root.
func (c *Client) rootSpan(ctx context.Context, family, graph string) *obs.Span {
	sp := obs.NewSpan(c.spanSeq.Add(1), "fleet")
	sp.Family, sp.Graph = family, graph
	if tc, ok := obs.TraceFromContext(ctx); ok {
		sp.SetTrace(tc)
	} else {
		sp.SetTrace(obs.NewTrace())
	}
	return sp
}

// childSpan opens an in-process child under parent: same trace, same
// hop.
func (c *Client) childSpan(parent *obs.Span, family, graph string) *obs.Span {
	sp := obs.NewSpan(c.spanSeq.Add(1), "fleet")
	sp.Family, sp.Graph = family, graph
	sp.SetTrace(parent.ChildCtx())
	return sp
}

// finishSpan closes a fleet span into the client's rings.
func (c *Client) finishSpan(sp *obs.Span, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	c.tracer.Finish(sp, time.Since(sp.Start), msg)
}

// Stats snapshots the failure-handling counters.
func (c *Client) Stats() Stats {
	return Stats{
		Failovers:    c.failovers.Load(),
		Ejects:       c.ejects.Load(),
		Recoveries:   c.recoveries.Load(),
		Adoptions:    c.adoptions.Load(),
		StandbySyncs: c.standbySyncs.Load(),
	}
}

// Owner returns the replica currently owning the graph.
func (c *Client) Owner(graph string) (string, bool) { return c.ring.Owner(graph) }

// isConflict reports a 409 — the graph is already registered there,
// which every idempotent path here treats as success.
func isConflict(err error) bool {
	var ae *flowd.APIError
	return errors.As(err, &ae) && ae.Status == http.StatusConflict
}

// Register places the graph on its owning replica (warm, so the
// substrates are built before the call returns) and caches the spec for
// adoption and standby sync. A duplicate registration is the owner's 409,
// as it is on a single daemon: the cached spec is never replaced by one
// the owner does not hold.
func (c *Client) Register(ctx context.Context, id string, spec store.GraphSpec) error {
	_, err := c.withOwner(ctx, id, "register", func(ctx context.Context, ms *memberState) (any, error) {
		_, err := ms.cl.RegisterWarm(ctx, id, spec)
		return nil, err
	})
	if err != nil {
		return err
	}
	c.specMu.Lock()
	c.specs[id] = spec
	c.specMu.Unlock()
	return nil
}

// Query routes one query to the graph's owner, failing over along the
// ring when the owner is down.
func (c *Client) Query(ctx context.Context, req flowd.QueryRequest) (*flowd.QueryResponse, error) {
	v, err := c.withOwner(ctx, req.Graph, req.Op, func(ctx context.Context, ms *memberState) (any, error) {
		return ms.cl.Query(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*flowd.QueryResponse), nil
}

// QueryBatch routes one batch to the graph's owner.
func (c *Client) QueryBatch(ctx context.Context, req flowd.BatchRequest) (*flowd.BatchResponse, error) {
	v, err := c.withOwner(ctx, req.Graph, "batch", func(ctx context.Context, ms *memberState) (any, error) {
		return ms.cl.QueryBatch(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*flowd.BatchResponse), nil
}

// withOwner is the routing loop every graph-keyed call runs through:
// resolve the owner, run the call, and on failure either eject +
// backoff + retry (transport failure), adopt + retry (owner-side
// unknown graph with a cached spec), or surface the error. The whole
// loop runs under a hop-0 root span; each routing decision and attempt
// is a child span, and each attempt's call runs with the attempt
// span's propagation on ctx so the replica's server span lands one hop
// deeper in the same trace.
func (c *Client) withOwner(ctx context.Context, graph, family string, call func(context.Context, *memberState) (any, error)) (v any, err error) {
	root := c.rootSpan(ctx, family, graph)
	defer func() { c.finishSpan(root, err) }()
	adopted := false
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		owner, ok := c.ring.Owner(graph)
		if !ok {
			err = ErrNoReplicas
			return nil, err
		}
		root.Annotate("route", owner)
		ms := c.members[owner]

		attFam := "attempt"
		if attempt > 0 {
			attFam = "failover"
		}
		att := c.childSpan(root, attFam, graph)
		att.Annotate("member", owner)
		att.Annotate("attempt", strconv.Itoa(attempt))
		cctx := obs.ContextWithTrace(ctx, att.Propagate())
		var cerr error
		v, cerr = call(cctx, ms)
		c.finishSpan(att, cerr)
		if cerr == nil {
			if attempt > 0 {
				c.failovers.Add(1)
			}
			return v, nil
		}
		if ctx.Err() != nil {
			return nil, cerr
		}
		switch {
		case flowd.IsUnavailable(cerr):
			c.eject(owner, root)
			if berr := c.backoff(ctx, attempt, root); berr != nil {
				err = cerr
				return nil, err
			}
		case flowd.IsNotFound(cerr) && !adopted && c.hasSpec(graph):
			// The routed replica does not hold the graph (fresh successor
			// after a failover): register the cached spec and run the peer
			// restore ladder, then retry the call once on the same replica.
			adopted = true
			if aerr := c.adopt(ctx, owner, graph, root); aerr != nil {
				if flowd.IsUnavailable(aerr) {
					c.eject(owner, root)
					continue
				}
				err = fmt.Errorf("fleet: adopt %q on %s: %w", graph, owner, aerr)
				return nil, err
			}
		default:
			err = cerr
			return nil, err
		}
	}
	err = fmt.Errorf("fleet: %q: retries exhausted: %w", graph, ErrNoReplicas)
	return nil, err
}

func (c *Client) hasSpec(graph string) bool {
	c.specMu.Lock()
	defer c.specMu.Unlock()
	_, ok := c.specs[graph]
	return ok
}

// adopt makes a replica that has never seen the graph serviceable:
// register the cached spec (409 = already there), then run its restore
// ladder with every other alive replica as a peer — so the bundle the
// old owner built ships over instead of being rebuilt. The adopt span
// propagates onto the register/restore calls, so the adopting
// replica's restore span and the source peer's snapfetch span land in
// the same trace at increasing hops.
func (c *Client) adopt(ctx context.Context, member, graph string, root *obs.Span) (err error) {
	c.specMu.Lock()
	spec, ok := c.specs[graph]
	c.specMu.Unlock()
	if !ok {
		return store.ErrUnknownGraph
	}
	ad := c.childSpan(root, "adopt", graph)
	ad.Annotate("member", member)
	defer func() { c.finishSpan(ad, err) }()
	actx := obs.ContextWithTrace(ctx, ad.Propagate())
	ms := c.members[member]
	if _, err = ms.cl.Register(actx, graph, spec); err != nil && !isConflict(err) {
		return err
	}
	resp, rerr := ms.cl.Restore(actx, graph, c.peerBases(member))
	if rerr != nil {
		err = rerr
		return err
	}
	err = nil
	c.adoptions.Add(1)
	c.journal.Record(obs.Event{
		Type: obs.EventAdopt, Member: member, Graph: graph,
		TraceID: root.TraceID(), Detail: "source=" + resp.Source,
	})
	ad.Annotate("source", resp.Source)
	if resp.Source == "peer" {
		c.journal.Record(obs.Event{
			Type: obs.EventPeerRestore, Member: member, Graph: graph,
			TraceID: root.TraceID(), Detail: "peer=" + resp.Peer,
		})
	}
	return nil
}

// peerBases lists every alive member's HTTP base except self — the peer
// list handed to the restore ladder.
func (c *Client) peerBases(self string) []string {
	var out []string
	for _, name := range c.order {
		if name == self || !c.ring.Alive(name) {
			continue
		}
		out = append(out, c.members[name].m.HTTP)
	}
	return out
}

// eject marks a member dead on the ring and starts its recovery probe.
// root is the span of the routed call that hit the failure; the
// journal's eject and epoch-bump events carry its trace id so the
// membership change is attributable to the request that caused it.
func (c *Client) eject(member string, root *obs.Span) {
	if !c.ring.Alive(member) {
		return
	}
	ej := c.childSpan(root, "eject", "")
	ej.Annotate("member", member)
	c.ring.SetAlive(member, false)
	epoch := c.ring.Epoch()
	ej.Annotate("epoch", strconv.FormatUint(epoch, 10))
	c.ejects.Add(1)
	c.journal.Record(obs.Event{Type: obs.EventEject, Member: member, TraceID: root.TraceID()})
	c.journal.Record(obs.Event{
		Type: obs.EventEpochBump, Member: member, TraceID: root.TraceID(),
		Detail: "epoch=" + strconv.FormatUint(epoch, 10),
	})
	c.finishSpan(ej, nil)
	c.startProbe(member, root)
}

// startProbe launches the single background prober for an ejected
// member: poll /healthz until it answers, then mark the member alive.
// The probe span and re-admit events carry the trace of the request
// whose failure started the watch.
func (c *Client) startProbe(member string, root *obs.Span) {
	if c.opt.ProbeInterval < 0 || c.closed.Load() {
		return
	}
	ms := c.members[member]
	if !ms.probing.CompareAndSwap(false, true) {
		return
	}
	traceID := root.TraceID()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer ms.probing.Store(false)
		pr := c.childSpan(root, "probe", "")
		pr.Annotate("member", member)
		polls := 0
		t := time.NewTicker(c.opt.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				pr.Annotate("polls", strconv.Itoa(polls))
				c.finishSpan(pr, context.Canceled)
				return
			case <-t.C:
				polls++
				ctx, cancel := context.WithTimeout(context.Background(), c.opt.ProbeInterval)
				_, err := ms.cl.Health(ctx)
				cancel()
				if err == nil {
					c.ring.SetAlive(member, true)
					epoch := c.ring.Epoch()
					c.recoveries.Add(1)
					c.journal.Record(obs.Event{Type: obs.EventReadmit, Member: member, TraceID: traceID})
					c.journal.Record(obs.Event{
						Type: obs.EventEpochBump, Member: member, TraceID: traceID,
						Detail: "epoch=" + strconv.FormatUint(epoch, 10),
					})
					pr.Annotate("polls", strconv.Itoa(polls))
					c.finishSpan(pr, nil)
					return
				}
			}
		}
	}()
}

// backoff sleeps the jittered exponential delay for the given attempt,
// honoring ctx. The sleep is a child span so a stitched slow trace
// shows where the waiting went.
func (c *Client) backoff(ctx context.Context, attempt int, root *obs.Span) error {
	d := backoffBase << uint(attempt)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	// Full jitter over [d/2, d): enough spread to de-synchronize
	// concurrent retriers without losing the exponential shape.
	c.rngMu.Lock()
	j := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	bo := c.childSpan(root, "backoff", "")
	bo.Annotate("attempt", strconv.Itoa(attempt))
	select {
	case <-ctx.Done():
		c.finishSpan(bo, ctx.Err())
		return ctx.Err()
	case <-time.After(j):
		c.finishSpan(bo, nil)
		return nil
	}
}

// SyncStandby replicates every registered graph onto its ring standbys:
// for each graph, the Replication successors beyond the owner get the
// spec registered (idempotent) and the bundle restored via the peer
// ladder with the owner first in the fetch order. Run it after
// registration (and periodically) so a failover finds the successor
// already holding a restored bundle — zero rebuilds on the kill path.
// Returns how many graph/standby pairs synced.
func (c *Client) SyncStandby(ctx context.Context) (int, error) {
	c.specMu.Lock()
	ids := make([]string, 0, len(c.specs))
	for id := range c.specs {
		ids = append(ids, id)
	}
	specs := make(map[string]store.GraphSpec, len(ids))
	for id := range c.specs {
		specs[id] = c.specs[id]
	}
	c.specMu.Unlock()

	root := c.rootSpan(ctx, "standby", "")
	epoch := c.ring.Epoch()
	synced := 0
	var firstErr error
	for _, id := range ids {
		chain := c.ring.Successors(id, 1+c.opt.Replication)
		if len(chain) < 2 {
			continue
		}
		owner := chain[0]
		for _, standby := range chain[1:] {
			key := id + "|" + standby
			c.specMu.Lock()
			done := c.syncedAt[key] == epoch
			c.specMu.Unlock()
			if done {
				continue
			}
			sy := c.childSpan(root, "sync", id)
			sy.Annotate("standby", standby)
			sy.Annotate("owner", owner)
			sctx := obs.ContextWithTrace(ctx, sy.Propagate())
			ms := c.members[standby]
			if _, err := ms.cl.Register(sctx, id, specs[id]); err != nil && !isConflict(err) {
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: standby register %q on %s: %w", id, standby, err)
				}
				c.finishSpan(sy, err)
				continue
			}
			// Owner first in the peer order: the freshest bundle lives there.
			peers := []string{c.members[owner].m.HTTP}
			for _, p := range c.peerBases(standby) {
				if p != peers[0] {
					peers = append(peers, p)
				}
			}
			resp, err := ms.cl.Restore(sctx, id, peers)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: standby restore %q on %s: %w", id, standby, err)
				}
				c.finishSpan(sy, err)
				continue
			}
			if resp.Source == "peer" {
				c.journal.Record(obs.Event{
					Type: obs.EventPeerRestore, Member: standby, Graph: id,
					TraceID: root.TraceID(), Detail: "peer=" + resp.Peer,
				})
			}
			sy.Annotate("source", resp.Source)
			c.finishSpan(sy, nil)
			c.specMu.Lock()
			c.syncedAt[key] = epoch
			c.specMu.Unlock()
			synced++
			c.standbySyncs.Add(1)
		}
	}
	root.Annotate("synced", strconv.Itoa(synced))
	c.finishSpan(root, firstErr)
	return synced, firstErr
}
