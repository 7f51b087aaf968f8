// Package store is the fleet-level serving layer over the prepared-graph
// artifacts: a concurrency-safe registry mapping graph IDs to
// planarflow.PreparedGraph bundles, with singleflight deduplication of
// concurrent builds, cost-aware LRU eviction under a configurable memory
// budget, and per-graph serving metrics. It is the piece between "one
// graph served many times" (PR 2's Prepare) and "many graphs served to
// many clients" (the flowd daemon): the store decides which substrates
// stay resident, the artifact layer (internal/artifact) guarantees each
// (graph, substrate) key is built exactly once however many requests race
// for it, and a context-canceled request abandons its half-built
// substrate at the next build checkpoint.
//
// Residency and eviction: the unit of eviction is a graph's whole
// artifact bundle (its PreparedGraph). The registered Graph itself is
// never dropped — an evicted graph rebuilds its substrates on the next
// query. Footprints come from PreparedGraph.Stats (estimated bytes per
// substrate) and are re-accounted after every query, since substrates
// build lazily and a query can grow the bundle. Eviction removes
// least-recently-used unpinned bundles until the total accounted
// footprint fits Config.MaxBytes; bundles pinned by in-flight queries are
// never evicted (the store may transiently exceed the budget while every
// resident bundle is in use). Queries racing an eviction are safe: a
// bundle is immutable, so an evicted bundle keeps serving the requests
// that hold it and is reclaimed when they finish.
//
// Disk tier: with Config.SpillDir set, eviction demotes instead of
// destroying — the evicted bundle's substrates are written as a snapshot
// (outside the store lock; the bundle is immutable), and a later miss
// checks the disk before rebuilding, restoring at decode speed with the
// snapshot-restore counted separately from builds. Snapshots are
// invalidated by the graph fingerprint baked into the format: a file
// that fails to decode (corruption, version skew, a re-registered id
// with a different graph) is deleted and the miss falls through to a
// normal rebuild, so the disk tier can only ever save work, never serve
// wrong answers.
package store

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"planarflow"
	"planarflow/internal/obs"
)

var (
	// ErrUnknownGraph reports a query for an id never registered.
	ErrUnknownGraph = errors.New("store: unknown graph")
	// ErrDuplicateID reports a Register for an id already registered.
	ErrDuplicateID = errors.New("store: duplicate graph id")
	// ErrGraphLimit reports a Register past Config.MaxGraphs.
	ErrGraphLimit = errors.New("store: graph limit reached")
	// ErrSpillDisabled reports a snapshot request on a store with no
	// Config.SpillDir.
	ErrSpillDisabled = errors.New("store: snapshot tier disabled (no spill directory)")
)

// DefaultMaxGraphs caps registrations when Config.MaxGraphs is zero.
// Registered graphs live outside the MaxBytes budget (only their
// artifact bundles are evictable), and registration is a network-facing
// operation in flowd — an uncapped registry is an OOM hand-crank.
const DefaultMaxGraphs = 1024

// Config parameterizes a Store.
type Config struct {
	// MaxBytes is the artifact memory budget (estimated bytes, as
	// accounted by PreparedGraph.Stats). <= 0 means unlimited.
	MaxBytes int64
	// MaxGraphs caps how many graphs may be registered (the graphs
	// themselves are not evictable). 0 means DefaultMaxGraphs; negative
	// means unlimited.
	MaxGraphs int
	// SpillDir enables the disk snapshot tier when non-empty: evicted
	// bundles write their substrate snapshot under this directory, and a
	// miss checks the disk before rebuilding. The directory is created on
	// first use; files are one per graph id.
	SpillDir string
}

// GraphStats is the per-graph serving metrics snapshot.
type GraphStats struct {
	ID        string `json:"id"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Resident  bool   `json:"resident"`
	Bytes     int64  `json:"bytes"` // accounted footprint when resident
	Pins      int    `json:"pins"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Builds    int64  `json:"builds"` // substrates built (across rebuilds)
	Evictions int64  `json:"evictions"`
	// BuildRounds is the cumulative simulated cost of every substrate this
	// graph built, including rebuilds after eviction — the price of cache
	// pressure in the model's own currency.
	BuildRounds int64 `json:"build_rounds"`
	// LastAccessUnixMS is the wall-clock time of the bundle's most recent
	// acquisition (query, batch or warm), in Unix milliseconds; 0 before
	// the first access.
	LastAccessUnixMS int64 `json:"last_access_unix_ms,omitempty"`
	// SnapshotRestores counts misses this graph served from the disk tier
	// instead of rebuilding.
	SnapshotRestores int64 `json:"snapshot_restores,omitempty"`
	// SnapshotWrites counts snapshots of this graph written to the disk
	// tier (on eviction or an explicit snapshot request).
	SnapshotWrites int64 `json:"snapshot_writes,omitempty"`
	// PeerRestores counts bundles this graph installed from snapshot bytes
	// fetched off another replica (the fleet's peer-to-peer restore path),
	// as opposed to the local disk tier.
	PeerRestores int64 `json:"peer_restores,omitempty"`
}

// Stats is the store-wide snapshot: aggregate counters plus one entry per
// registered graph (sorted by id).
type Stats struct {
	Graphs      int   `json:"graphs"`
	Resident    int   `json:"resident"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Builds      int64 `json:"builds"`
	Evictions   int64 `json:"evictions"`
	BuildRounds int64 `json:"build_rounds"`
	// Disk-tier counters (all zero when Config.SpillDir is unset).
	SnapshotWrites   int64 `json:"snapshot_writes,omitempty"`
	SnapshotRestores int64 `json:"snapshot_restores,omitempty"`
	SnapshotErrors   int64 `json:"snapshot_errors,omitempty"`
	// PeerRestores counts bundles installed from peer-fetched snapshot
	// bytes (InstallSnapshot) — the fleet's warm-restore path.
	PeerRestores int64        `json:"peer_restores,omitempty"`
	PerGraph     []GraphStats `json:"per_graph"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one registered graph. The Graph is permanent; the
// PreparedGraph bundle is the resident, evictable part.
type entry struct {
	id string
	gr *planarflow.Graph

	pg   *planarflow.PreparedGraph // nil when not resident
	elem *list.Element             // position in the LRU list when resident
	pins int                       // in-flight queries holding pg

	// Accounting of the current resident bundle (re-read after queries).
	bytes      int64
	substrates int
	rounds     int64

	hits, misses, builds, evictions, buildRounds int64
	lastAccessMS                                 int64 // Unix ms of the latest acquire
	snapRestores, snapWrites, peerRestores       int64
}

// Store is the registry. Safe for concurrent use.
type Store struct {
	cfg Config

	mu   sync.Mutex
	ents map[string]*entry
	lru  *list.List // of *entry; front = most recently used resident bundle

	bytes                           int64
	hits, misses, builds, evictions int64
	buildRounds                     int64
	snapWrites, snapRestores        int64
	snapErrors, peerRestores        int64

	spillWG sync.WaitGroup // in-flight eviction spills
}

// New returns an empty store with the given budget.
func New(cfg Config) *Store {
	return &Store{cfg: cfg, ents: map[string]*entry{}, lru: list.New()}
}

// Register adds a graph under id. The graph itself is retained for the
// store's lifetime; its artifact bundle is built on first query.
func (s *Store) Register(id string, gr *planarflow.Graph) error {
	if gr == nil {
		return fmt.Errorf("store: register %q: nil graph", id)
	}
	if id == "" {
		return errors.New("store: empty graph id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(id, gr)
}

func (s *Store) registerLocked(id string, gr *planarflow.Graph) error {
	if _, ok := s.ents[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	limit := s.cfg.MaxGraphs
	if limit == 0 {
		limit = DefaultMaxGraphs
	}
	if limit > 0 && len(s.ents) >= limit {
		return fmt.Errorf("%w: %d graphs registered", ErrGraphLimit, len(s.ents))
	}
	s.ents[id] = &entry{id: id, gr: gr}
	return nil
}

// RegisterSpec generates the graph described by sp and registers it. The
// duplicate/limit checks run before the (possibly large) generation, and
// again authoritatively at insertion; a racing duplicate can still waste
// one build, but a repeated or abusive one cannot.
func (s *Store) RegisterSpec(id string, sp GraphSpec) (*planarflow.Graph, error) {
	if id == "" {
		return nil, errors.New("store: empty graph id")
	}
	s.mu.Lock()
	_, dup := s.ents[id]
	s.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	gr, err := sp.Build()
	if err != nil {
		return nil, err
	}
	if err := s.Register(id, gr); err != nil {
		return nil, err
	}
	return gr, nil
}

// Graph returns the registered graph (not its bundle); nil if unknown.
func (s *Store) Graph(id string) *planarflow.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.ents[id]; ok {
		return e.gr
	}
	return nil
}

// IDs returns the registered graph ids, sorted.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.ents))
	for id := range s.ents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// With runs fn against the graph's bundle, pinned for the duration of the
// call. The bundle fn receives is bound to ctx: substrate builds it
// triggers are abandoned at the next checkpoint if ctx is canceled. hit
// reports whether the bundle was already resident (a hit does not imply
// the substrates fn needs are warm — those build lazily, deduplicated
// across all concurrent callers by the artifact layer). After fn returns,
// the bundle's footprint is re-accounted and LRU eviction runs if the
// store is over budget.
func (s *Store) With(ctx context.Context, id string, fn func(pg *planarflow.PreparedGraph, hit bool) error) error {
	sp := obs.SpanFromContext(ctx)
	t0 := time.Now()
	e, pg, hit, err := s.acquire(id)
	d := time.Since(t0)
	mAcquire.Observe(d)
	sp.Add(obs.PhaseAcquire, d)
	if err != nil {
		return err
	}
	defer s.release(e, pg)
	t0 = time.Now()
	err = fn(pg.WithContext(ctx), hit)
	sp.MarkSince(obs.PhaseExec, t0)
	return err
}

// acquire pins the bundle of id, creating it on a miss. A miss checks
// the disk tier first: a valid snapshot restores the substrates at
// decode speed (accounted immediately, counted as a snapshot restore,
// not as builds); otherwise the bundle starts empty and substrates build
// lazily. The restore runs under the store lock — it is decode-bound
// (milliseconds for serving-sized graphs), and holding the lock keeps
// the one-bundle-per-id invariant without a second singleflight layer.
func (s *Store) acquire(id string) (*entry, *planarflow.PreparedGraph, bool, error) {
	t0 := time.Now()
	s.mu.Lock()
	mQueueWait.Observe(time.Since(t0))
	defer s.mu.Unlock()
	e, ok := s.ents[id]
	if !ok {
		return nil, nil, false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	e.lastAccessMS = time.Now().UnixMilli()
	hit := e.pg != nil
	if hit {
		e.hits++
		s.hits++
		s.lru.MoveToFront(e.elem)
	} else {
		if err := s.residentLocked(e); err != nil {
			return nil, nil, false, err
		}
		e.misses++
		s.misses++
	}
	e.pins++
	return e, e.pg, hit, nil
}

// residentLocked makes e's bundle resident on a miss: disk restore when
// the spill tier holds a valid snapshot, empty bundle otherwise.
func (s *Store) residentLocked(e *entry) error {
	if pg := s.restoreLocked(e); pg != nil {
		s.installLocked(e, pg, &e.snapRestores, &s.snapRestores)
		return nil
	}
	pg, err := planarflow.Prepare(e.gr) // O(1): substrates build lazily
	if err != nil {
		return err
	}
	e.pg = pg
	e.elem = s.lru.PushFront(e)
	return nil
}

// installLocked is the one "a warm bundle becomes resident" transition,
// shared by the miss path, TryRestore, SnapshotTo's disk promotion and
// InstallSnapshot: publish pg as e's bundle at the LRU front, account its
// substrates on arrival (they are resident right now; release only ever
// grows these monotonically), and bump the per-graph and store-wide
// counter of the route it arrived by (disk restore or peer restore).
func (s *Store) installLocked(e *entry, pg *planarflow.PreparedGraph, perGraph, total *int64) {
	e.pg = pg
	e.elem = s.lru.PushFront(e)
	st := pg.Stats()
	e.bytes, e.substrates, e.rounds = st.Bytes, len(st.Substrates), st.BuildRounds
	s.bytes += st.Bytes
	*perGraph++
	*total++
}

// restoreLocked attempts a disk-tier restore for e; nil means no usable
// snapshot. A file that is provably dead — corrupt bytes, or a
// fingerprint from a different graph (the id was re-registered) — is
// deleted so the next miss does not retry it; a transient read error
// leaves the file in place (it may decode fine next time) and only
// counts against the error metric.
func (s *Store) restoreLocked(e *entry) *planarflow.PreparedGraph {
	if s.cfg.SpillDir == "" {
		return nil
	}
	path := s.spillPath(e.id)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	t0 := time.Now()
	pg, err := planarflow.RestorePrepared(e.gr, bufio.NewReader(f))
	f.Close()
	if err != nil {
		s.snapErrors++
		if errors.Is(err, planarflow.ErrBadSnapshot) || errors.Is(err, planarflow.ErrSnapshotMismatch) {
			os.Remove(path)
		}
		return nil
	}
	mRestore.Observe(time.Since(t0))
	return pg
}

// release re-accounts the bundle's footprint after a query, unpins it,
// and evicts if over budget. The Stats snapshot happens outside the store
// lock; accounting applies only if the entry still holds the same bundle
// (a bundle evicted mid-query stops being accounted the moment it is
// dropped — its remaining growth belongs to the dying reference).
func (s *Store) release(e *entry, pg *planarflow.PreparedGraph) {
	st := pg.Stats()
	s.mu.Lock()
	e.pins--
	// A bundle only grows, so each accounting field advances monotonically:
	// a release whose snapshot raced a concurrent build (and is staler than
	// what another release already recorded) must not regress the recorded
	// values, or the next release would re-count the difference.
	if e.pg == pg {
		if st.Bytes > e.bytes {
			s.bytes += st.Bytes - e.bytes
			e.bytes = st.Bytes
		}
		if nb := len(st.Substrates) - e.substrates; nb > 0 {
			e.builds += int64(nb)
			s.builds += int64(nb)
			e.substrates = len(st.Substrates)
		}
		if dr := st.BuildRounds - e.rounds; dr > 0 {
			e.buildRounds += dr
			s.buildRounds += dr
			e.rounds = st.BuildRounds
		}
	}
	jobs := s.evictLocked()
	s.mu.Unlock()
	s.spillAsync(jobs)
}

// spillJob is one demotion to the disk tier: the bundle captured before
// dropLocked cleared the entry (immutable, so safe to encode while
// in-flight queries still hold it).
type spillJob struct {
	e  *entry
	pg *planarflow.PreparedGraph
}

// evictLocked drops least-recently-used unpinned bundles until the
// accounted footprint fits the budget, returning the spill jobs the
// caller must run after releasing the lock.
func (s *Store) evictLocked() []spillJob {
	if s.cfg.MaxBytes <= 0 {
		return nil
	}
	var jobs []spillJob
	for el := s.lru.Back(); el != nil && s.bytes > s.cfg.MaxBytes; {
		e := el.Value.(*entry)
		prev := el.Prev()
		if e.pins == 0 {
			jobs = append(jobs, s.dropLocked(e)...)
		}
		el = prev
	}
	return jobs
}

// dropLocked evicts one resident bundle, returning its spill job when
// the disk tier is enabled.
func (s *Store) dropLocked(e *entry) []spillJob {
	pg := e.pg
	s.bytes -= e.bytes
	s.lru.Remove(e.elem)
	e.pg, e.elem = nil, nil
	e.bytes, e.substrates, e.rounds = 0, 0, 0
	e.evictions++
	s.evictions++
	mEvictions.Inc()
	if s.cfg.SpillDir == "" {
		return nil
	}
	return []spillJob{{e: e, pg: pg}}
}

// spillAsync writes demoted bundles to the disk tier off the serving
// path: the releasing query's latency must not include encode + disk
// I/O for bundles it happened to push over the budget. A miss that
// races an in-flight spill simply rebuilds (the spill still lands for
// the next one); two spills of the same id serialize through the
// temp+rename, so the file is always one complete snapshot.
func (s *Store) spillAsync(jobs []spillJob) {
	if len(jobs) == 0 {
		return
	}
	s.spillWG.Add(1)
	go func() {
		defer s.spillWG.Done()
		s.spill(jobs)
	}()
}

// FlushSpills blocks until every in-flight eviction spill has been
// written — the orderly-shutdown hook (and the tests' determinism
// valve). Explicit SnapshotResident writes are synchronous already.
func (s *Store) FlushSpills() { s.spillWG.Wait() }

// spill writes demoted bundles to the disk tier. Errors are counted, not
// fatal: a failed spill only means the next miss rebuilds.
func (s *Store) spill(jobs []spillJob) {
	for _, j := range jobs {
		err := s.writeSnapshot(j.e.id, j.pg)
		s.mu.Lock()
		if err != nil {
			s.snapErrors++
		} else {
			j.e.snapWrites++
			s.snapWrites++
		}
		s.mu.Unlock()
	}
}

// writeSnapshot persists one bundle under the spill directory, via a
// temp file and rename so readers never see a torn snapshot.
func (s *Store) writeSnapshot(id string, pg *planarflow.PreparedGraph) error {
	t0 := time.Now()
	defer func() { mSpillWrite.Observe(time.Since(t0)) }()
	if err := os.MkdirAll(s.cfg.SpillDir, 0o755); err != nil {
		return err
	}
	path := s.spillPath(id)
	tmp, err := os.CreateTemp(s.cfg.SpillDir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := pg.Snapshot(bw); err == nil {
		err = bw.Flush()
	} else {
		bw.Flush()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// spillPath maps a graph id to its snapshot file. Ids are sanitized to a
// filesystem-safe alphabet; a short hash of the raw id keeps sanitized
// collisions (e.g. "a/b" vs "a_b") apart.
func (s *Store) spillPath(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	var h uint64 = 14695981039346656037 // FNV-1a over the raw id
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return filepath.Join(s.cfg.SpillDir, fmt.Sprintf("%s-%016x.pfsnap", b.String(), h))
}

// SpillEnabled reports whether the disk tier is configured.
func (s *Store) SpillEnabled() bool { return s.cfg.SpillDir != "" }

// SnapshotResident writes the current resident bundles (all of them, or
// just the given ids) to the disk tier without evicting anything — the
// ops valve behind flowd's POST /v1/snapshot, and the way a daemon
// persists its warm working set before a planned restart. Unknown ids
// error; known-but-not-resident ids are skipped (an evicted bundle
// already spilled on the way out). Returns how many snapshots were
// written.
func (s *Store) SnapshotResident(ids ...string) (int, error) {
	if !s.SpillEnabled() {
		return 0, ErrSpillDisabled
	}
	s.mu.Lock()
	if len(ids) == 0 {
		for id := range s.ents {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}
	var jobs []spillJob
	for _, id := range ids {
		e, ok := s.ents[id]
		if !ok {
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
		}
		if e.pg != nil {
			jobs = append(jobs, spillJob{e: e, pg: e.pg})
		}
	}
	s.mu.Unlock()
	var firstErr error
	written := 0
	for _, j := range jobs {
		err := s.writeSnapshot(j.e.id, j.pg)
		s.mu.Lock()
		if err != nil {
			s.snapErrors++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			j.e.snapWrites++
			s.snapWrites++
			written++
		}
		s.mu.Unlock()
	}
	return written, firstErr
}

// TryRestore warm-restores one registered graph from the disk tier
// without running a query: on a daemon boot, restoring every registered
// spec turns the first traffic spike from cold rebuilds into decode-time
// restores. Reports whether a snapshot was restored (false when the
// bundle is already resident, the tier is disabled, or no usable
// snapshot exists — none of which is an error).
func (s *Store) TryRestore(id string) (bool, error) {
	s.mu.Lock()
	e, ok := s.ents[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	if e.pg != nil {
		s.mu.Unlock()
		return false, nil
	}
	pg := s.restoreLocked(e)
	if pg == nil {
		s.mu.Unlock()
		return false, nil
	}
	s.installLocked(e, pg, &e.snapRestores, &s.snapRestores)
	e.lastAccessMS = time.Now().UnixMilli()
	jobs := s.evictLocked() // the restore may overshoot the budget
	s.mu.Unlock()
	s.spillAsync(jobs)
	return true, nil
}

// SnapshotTo streams the graph's current substrate snapshot into w —
// the serving side of the fleet's peer-to-peer restore path. A bundle
// not resident in memory is first promoted from the disk tier (a spilled
// bundle is still shippable); (false, nil) means there is nothing to
// ship — not resident anywhere — which is a routing fact, not an error.
// The encode runs outside the store lock (bundles are immutable) with
// the bundle pinned so eviction cannot race the stream.
func (s *Store) SnapshotTo(id string, w io.Writer) (bool, error) {
	s.mu.Lock()
	e, ok := s.ents[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	if e.pg == nil {
		pg := s.restoreLocked(e)
		if pg == nil {
			s.mu.Unlock()
			return false, nil
		}
		s.installLocked(e, pg, &e.snapRestores, &s.snapRestores)
	}
	pg := e.pg
	e.pins++
	s.mu.Unlock()
	err := pg.Snapshot(w)
	s.mu.Lock()
	e.pins--
	jobs := s.evictLocked() // the disk promotion may have overshot the budget
	s.mu.Unlock()
	s.spillAsync(jobs)
	if err != nil {
		return false, err
	}
	return true, nil
}

// InstallSnapshot decodes peer-fetched snapshot bytes and installs the
// bundle for id — the receiving side of the fleet restore path. The
// decode validates the full PFSNAP envelope (fingerprint, version,
// checksums) against the locally registered graph, so bytes from a
// mismatched or corrupt peer are rejected with no partial state; the
// install is first-publish-wins ((false, nil) when a bundle went
// resident while we were decoding — the resident one is just as good).
// A successful install counts as a peer restore, never as builds.
func (s *Store) InstallSnapshot(id string, data []byte) (bool, error) {
	s.mu.Lock()
	e, ok := s.ents[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	if e.pg != nil {
		s.mu.Unlock()
		return false, nil
	}
	gr := e.gr
	s.mu.Unlock()

	// Decode outside the lock: restore is decode-bound and must not stall
	// the serving path. RestorePrepared guarantees no partial bundle is
	// visible on error.
	pg, err := planarflow.RestorePrepared(gr, bytes.NewReader(data))
	if err != nil {
		s.mu.Lock()
		s.snapErrors++
		s.mu.Unlock()
		return false, err
	}

	s.mu.Lock()
	if e.pg != nil {
		s.mu.Unlock()
		return false, nil
	}
	s.installLocked(e, pg, &e.peerRestores, &s.peerRestores)
	e.lastAccessMS = time.Now().UnixMilli()
	jobs := s.evictLocked()
	s.mu.Unlock()
	s.spillAsync(jobs)
	return true, nil
}

// EvictAll drops every unpinned resident bundle (a debugging/ops valve;
// pinned bundles are left to the regular budget path). With the disk
// tier enabled the dropped bundles spill before EvictAll returns — an
// ops call, not a serving path, so it waits for its own writes.
func (s *Store) EvictAll() {
	s.mu.Lock()
	var jobs []spillJob
	for el := s.lru.Back(); el != nil; {
		e := el.Value.(*entry)
		prev := el.Prev()
		if e.pins == 0 {
			jobs = append(jobs, s.dropLocked(e)...)
		}
		el = prev
	}
	s.mu.Unlock()
	s.spill(jobs)
}

// Counts returns the cheap aggregate triple — registered graphs,
// resident bundles, accounted bytes — for gauge callbacks that must not
// pay Snapshot's per-graph walk on every scrape.
func (s *Store) Counts() (graphs, resident int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ents), s.lru.Len(), s.bytes
}

// Snapshot returns the store-wide metrics.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Graphs: len(s.ents), Bytes: s.bytes, MaxBytes: s.cfg.MaxBytes,
		Hits: s.hits, Misses: s.misses, Builds: s.builds,
		Evictions: s.evictions, BuildRounds: s.buildRounds,
		SnapshotWrites: s.snapWrites, SnapshotRestores: s.snapRestores,
		SnapshotErrors: s.snapErrors, PeerRestores: s.peerRestores,
	}
	ids := make([]string, 0, len(s.ents))
	for id := range s.ents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := s.ents[id]
		if e.pg != nil {
			st.Resident++
		}
		st.PerGraph = append(st.PerGraph, GraphStats{
			ID: id, N: e.gr.N(), M: e.gr.M(),
			Resident: e.pg != nil, Bytes: e.bytes, Pins: e.pins,
			Hits: e.hits, Misses: e.misses, Builds: e.builds,
			Evictions: e.evictions, BuildRounds: e.buildRounds,
			LastAccessUnixMS: e.lastAccessMS,
			SnapshotRestores: e.snapRestores, SnapshotWrites: e.snapWrites,
			PeerRestores: e.peerRestores,
		})
	}
	return st
}
