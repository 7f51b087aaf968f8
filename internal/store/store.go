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
// query. Footprints come from PreparedGraph.Totals (the sum of Stats'
// estimated bytes per substrate, kept running by the artifact layer) and
// are re-accounted after every query, since substrates build lazily and
// a query can grow the bundle. Eviction removes
// least-recently-used unpinned bundles until the total accounted
// footprint fits Config.MaxBytes; bundles pinned by in-flight queries are
// never evicted (the store may transiently exceed the budget while every
// resident bundle is in use). Queries racing an eviction are safe: a
// bundle is immutable, so an evicted bundle keeps serving the requests
// that hold it and is reclaimed when they finish.
//
// Disk tier: with Config.SpillDir set, eviction demotes instead of
// destroying, and a later miss checks the disk before rebuilding,
// restoring at decode speed with the snapshot-restore counted separately
// from builds. The tier is write-once: each entry carries a mark, the
// substrate key set (kind, lengths, leaf limit) its spill file is known
// to hold, and evicting a bundle with exactly that set writes nothing
// (Stats.SpillsElided) — substrates are deterministic, so the bytes on
// disk are the bytes it would encode. The mark is set when a restore
// reads the file and when a spill or SnapshotResident write of it
// completes; it is cleared when a restore finds no file or rejects it,
// when a write fails, and when InstallSnapshot brings the bundle in. A
// bundle with nothing built matches the cleared mark: never worth a write.
//
// Restores and writes run outside the store lock (bundles are
// immutable). A restore is a per-entry singleflight: the first miss
// reads and decodes the file, later callers for that graph wait on its
// channel or their own context, and everyone else goes straight through.
// Every read and write of one entry's spill file happens under that
// entry's fileMu, and the mark is only set while still holding it, so a
// late rename cannot leave the mark describing a file other than the one
// on disk. A file that fails to decode (corruption, version skew, a
// fingerprint from a re-registered id's other graph) is deleted and the
// miss rebuilds, so the tier can only save work, never serve wrong answers.
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
	// ErrBadID reports an empty id or one longer than MaxIDLen, in a
	// registration or a query.
	ErrBadID = errors.New("store: bad graph id")
	// ErrBadSpec reports a GraphSpec that names no generator or asks one
	// for a graph it cannot make (see GraphSpec.Validate).
	ErrBadSpec = errors.New("store: bad graph spec")
	// ErrSpillDisabled reports a snapshot request on a store with no
	// Config.SpillDir.
	ErrSpillDisabled = errors.New("store: snapshot tier disabled (no spill directory)")
)

// MaxIDLen caps a graph id's length in bytes, at registration, so an id
// fits every carrier it rides: the binary wire codec's capped strings and
// the path of a peer's snapshot fetch. A registered graph can always be
// queried and peer-restored.
const MaxIDLen = 256

// CheckID is the one graph-id rule: it admits ids of 1..MaxIDLen bytes.
// Registration, a query for an id the store does not hold, and flowd's
// request decoders on every plane all refuse by it, so an id is refused in
// one class (ErrBadID) whichever route carries it.
func CheckID(id string) error {
	if id == "" || len(id) > MaxIDLen {
		return fmt.Errorf("%w: length %d out of [1, %d]", ErrBadID, len(id), MaxIDLen)
	}
	return nil
}

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
	// SpillsElided counts evictions of this graph that wrote nothing
	// because its spill file already held the evicted bundle's substrates.
	SpillsElided int64 `json:"spills_elided,omitempty"`
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
	SpillsElided     int64 `json:"spills_elided,omitempty"`
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
	spillsElided                                 int64

	// Disk tier (package comment). loading is non-nil while a restore of
	// this entry is in flight, closed when it settles; fileKeys is the
	// mark, "" when cleared. Both are guarded by Store.mu. fileMu orders
	// reads and writes of the file and is held whenever fileKeys is set
	// non-empty. Lock order: fileMu, then Store.mu.
	loading  chan struct{}
	fileMu   sync.Mutex
	fileKeys string
}

// Store is the registry. Safe for concurrent use.
type Store struct {
	cfg Config

	mu   sync.Mutex
	ents map[string]*entry
	lru  *list.List // of *entry; front = most recently used resident bundle

	// bytes is the accounted footprint of every resident bundle (eviction
	// reads it); snapErrors is the one counter with no per-graph home.
	// Every other store-wide count is the sum over entries — entries are
	// never removed — and Snapshot adds them up.
	bytes      int64
	snapErrors int64

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
	if err := gr.CheckWeightRange(); err != nil {
		return fmt.Errorf("store: register %q: %w", id, err)
	}
	if err := CheckID(id); err != nil {
		return err
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
	if err := CheckID(id); err != nil {
		return nil, err
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
	e, pg, hit, err := s.acquire(ctx, id)
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

// acquire pins the bundle of id, making it resident on a miss. A miss
// checks the disk tier first (load): a valid snapshot restores the
// substrates at decode speed (accounted immediately, counted as a
// snapshot restore, not as builds); otherwise the bundle starts empty and
// substrates build lazily. The store lock is released while the file is
// decoded, so a miss holds up only later callers for the same graph, who
// wait for that one load and count as misses too. A caller whose ctx ends
// while it waits gets the bare ctx.Err(): nothing pinned or counted.
func (s *Store) acquire(ctx context.Context, id string) (*entry, *planarflow.PreparedGraph, bool, error) {
	t0 := time.Now()
	s.mu.Lock()
	mQueueWait.Observe(time.Since(t0))
	defer s.mu.Unlock()
	e, ok := s.ents[id]
	if !ok {
		if err := CheckID(id); err != nil {
			return nil, nil, false, err
		}
		return nil, nil, false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	hit := e.pg != nil
	if hit {
		e.hits++
		s.lru.MoveToFront(e.elem)
	} else {
		if _, err := s.load(ctx, e); err != nil {
			return nil, nil, false, err
		}
		if e.pg == nil { // nothing usable on disk: start empty
			pg, err := planarflow.Prepare(e.gr) // O(1): substrates build lazily
			if err != nil {
				return nil, nil, false, err
			}
			e.pg = pg
			e.elem = s.lru.PushFront(e)
		}
		e.misses++
	}
	e.lastAccessMS = time.Now().UnixMilli()
	e.pins++
	return e, e.pg, hit, nil
}

// load brings e's bundle in from the disk tier when it is not resident:
// the one restore route, shared by acquire, TryRestore and SnapshotTo.
// Called with s.mu held; it releases the lock while it reads the file or
// waits for another caller's read, and returns (or unwinds) holding it
// again. loaded reports that this call installed the bundle; e.pg stays
// nil only when the tier had nothing usable. The only error is ctx's own.
func (s *Store) load(ctx context.Context, e *entry) (loaded bool, err error) {
	for e.pg == nil && s.cfg.SpillDir != "" {
		ch := e.loading
		if ch == nil {
			ch = make(chan struct{})
			e.loading = ch
			return s.loadFile(e, ch), nil
		}
		s.mu.Unlock()
		t0 := time.Now()
		select {
		case <-ch: // settled either way: re-check
			mRestoreWait.Observe(time.Since(t0))
		case <-ctx.Done():
			err = ctx.Err()
		}
		s.mu.Lock()
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// loadFile is the loader's half of load: read and decode e's spill file
// with s.mu released and e.fileMu held, then publish first-wins (a bundle
// InstallSnapshot made resident meanwhile is just as good) and set the
// mark to what the file turned out to hold. Publishing runs deferred so
// that a panicking decoder still wakes the waiters on ch.
func (s *Store) loadFile(e *entry, ch chan struct{}) (loaded bool) {
	s.mu.Unlock()
	e.fileMu.Lock()
	var pg *planarflow.PreparedGraph
	var keys string
	var err error
	defer func() {
		s.mu.Lock()
		e.loading = nil
		close(ch)
		if err != nil {
			s.snapErrors++
		}
		e.fileKeys = keys
		if pg != nil && e.pg == nil {
			s.installLocked(e, pg, &e.snapRestores)
			loaded = true
		}
		e.fileMu.Unlock()
	}()
	if pg, err = s.readSpill(e); pg != nil {
		keys = keySet(pg)
	}
	return
}

// installLocked is the one "a warm bundle becomes resident" transition,
// shared by the disk loader and InstallSnapshot: publish pg as e's bundle
// at the LRU front, account its substrates on arrival (they are resident
// right now; release only ever grows these monotonically), and bump the
// entry's counter of the route it arrived by (disk restore or peer
// restore).
func (s *Store) installLocked(e *entry, pg *planarflow.PreparedGraph, arrivals *int64) {
	e.pg = pg
	e.elem = s.lru.PushFront(e)
	e.bytes, e.substrates, e.rounds = pg.Totals()
	s.bytes += e.bytes
	*arrivals++
}

// readSpill opens and decodes e's spill file (caller holds e.fileMu, not
// s.mu). (nil, nil) means there is no file. A file that is provably dead
// — corrupt bytes, or a fingerprint from a different graph (the id was
// re-registered) — is deleted so the next miss does not retry it; a
// transient read error leaves the file in place (it may decode fine next
// time). Either way the error is returned to be counted.
func (s *Store) readSpill(e *entry) (*planarflow.PreparedGraph, error) {
	path := s.spillPath(e.id)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	t0 := time.Now()
	pg, err := planarflow.RestorePrepared(e.gr, bufio.NewReader(f))
	if err != nil {
		if errors.Is(err, planarflow.ErrBadSnapshot) || errors.Is(err, planarflow.ErrSnapshotMismatch) {
			os.Remove(path)
		}
		return nil, err
	}
	mRestore.Observe(time.Since(t0))
	return pg, nil
}

// keySet names the substrates a bundle holds, "kind/lengths/leaf;" each,
// in Stats' deterministic order. Substrates are deterministic, so for one
// graph equal key sets snapshot to equal bytes; a bundle with nothing
// built has the empty set.
func keySet(pg *planarflow.PreparedGraph) string {
	var b strings.Builder
	for _, sub := range pg.Stats().Substrates {
		fmt.Fprintf(&b, "%s/%s/%d;", sub.Kind, sub.Lengths, sub.LeafLimit)
	}
	return b.String()
}

// release re-accounts the bundle's footprint after a query, unpins it,
// and evicts if over budget. The bundle's totals are read outside the
// store lock; accounting applies only if the entry still holds the same
// bundle (a bundle evicted mid-query stops being accounted the moment it
// is dropped — its remaining growth belongs to the dying reference).
func (s *Store) release(e *entry, pg *planarflow.PreparedGraph) {
	bytes, subs, rounds := pg.Totals()
	s.mu.Lock()
	e.pins--
	// A bundle only grows, so each accounting field advances monotonically:
	// a release whose read raced a concurrent build (and is staler than
	// what another release already recorded) must not regress the recorded
	// values, or the next release would re-count the difference.
	if e.pg == pg {
		if bytes > e.bytes {
			s.bytes += bytes - e.bytes
			e.bytes = bytes
		}
		if nb := subs - e.substrates; nb > 0 {
			e.builds += int64(nb)
			e.substrates = subs
		}
		if dr := rounds - e.rounds; dr > 0 {
			e.buildRounds += dr
			e.rounds = rounds
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
// the disk tier is enabled and the spill file does not already hold
// exactly the substrates the bundle has (an unpinned bundle builds
// nothing more, so its key set is final).
func (s *Store) dropLocked(e *entry) []spillJob {
	pg := e.pg
	s.bytes -= e.bytes
	s.lru.Remove(e.elem)
	e.pg, e.elem = nil, nil
	e.bytes, e.substrates, e.rounds = 0, 0, 0
	e.evictions++
	if s.cfg.SpillDir == "" {
		return nil
	}
	if keySet(pg) == e.fileKeys {
		e.spillsElided++
		return nil
	}
	return []spillJob{{e: e, pg: pg}}
}

// spillAsync writes demoted bundles to the disk tier off the serving
// path: the releasing query's latency must not include encode + disk
// I/O for bundles it happened to push over the budget. A miss that
// arrives while its own graph's spill is being written waits for it on
// the entry's fileMu and restores what it wrote; one that beats the
// writer to the lock reads whatever was there before, or rebuilds.
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
		s.writeSpill(j.e, j.pg)
	}
}

// writeSpill writes pg as e's spill file under e.fileMu, then counts the
// write and moves the mark before letting go of the file: to pg's key
// set, or to nothing when the write failed or a substrate published
// while it was being encoded (SnapshotResident writes live bundles), in
// which case what the file holds lies somewhere between the two sets.
func (s *Store) writeSpill(e *entry, pg *planarflow.PreparedGraph) error {
	e.fileMu.Lock()
	defer e.fileMu.Unlock()
	keys := keySet(pg)
	err := s.writeSnapshot(e.id, pg)
	if err != nil || keySet(pg) != keys {
		keys = ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.fileKeys = keys
	if err != nil {
		s.snapErrors++
		return err
	}
	e.snapWrites++
	return nil
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
// already spilled on the way out). Resident bundles are written
// unconditionally, whatever their marks say. Returns how many snapshots
// were written.
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
		if err := s.writeSpill(j.e, j.pg); err == nil {
			written++
		} else if firstErr == nil {
			firstErr = err
		}
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
	defer s.mu.Unlock()
	e, ok := s.ents[id]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	loaded, _ := s.load(context.Background(), e) // Background never ends a wait
	if loaded {
		e.lastAccessMS = time.Now().UnixMilli()
		s.spillAsync(s.evictLocked()) // the restore may overshoot the budget
	}
	return loaded, nil
}

// SnapshotTo streams the graph's current substrate snapshot into w —
// the serving side of the fleet's peer-to-peer restore path. A bundle
// not resident in memory is first promoted from the disk tier (a spilled
// bundle is still shippable); (false, nil) means there is nothing to
// ship — not resident anywhere — which is a routing fact, not an error.
// The encode runs outside the store lock (bundles are immutable) with
// the bundle pinned so eviction cannot race the stream.
func (s *Store) SnapshotTo(id string, w io.Writer) (bool, error) {
	e, pg, err := s.pinWarm(id)
	if pg == nil {
		return false, err
	}
	defer s.release(e, pg) // unpins; the disk promotion may have overshot the budget
	if err := pg.Snapshot(w); err != nil {
		return false, err
	}
	return true, nil
}

// pinWarm pins id's bundle if it is resident or the disk tier can make
// it so; a nil bundle with a nil error means it is neither.
func (s *Store) pinWarm(id string) (*entry, *planarflow.PreparedGraph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.ents[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownGraph, id)
	}
	s.load(context.Background(), e) // Background never ends a wait
	if e.pg != nil {
		e.pins++
	}
	return e, e.pg, nil
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
	s.installLocked(e, pg, &e.peerRestores)
	e.fileKeys = "" // not this entry's file: its eviction writes
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

// Totals returns the store-wide aggregate counters with PerGraph nil:
// one walk of the registry, no sort, for readers that never look at a
// per-graph row (scrape-time gauges and counters, liveness probes, the
// fleet front's sums).
func (s *Store) Totals() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalsLocked()
}

func (s *Store) totalsLocked() Stats {
	st := Stats{
		Graphs: len(s.ents), Bytes: s.bytes, MaxBytes: s.cfg.MaxBytes,
		SnapshotErrors: s.snapErrors,
	}
	for _, e := range s.ents {
		if e.pg != nil {
			st.Resident++
		}
		st.Hits += e.hits
		st.Misses += e.misses
		st.Builds += e.builds
		st.Evictions += e.evictions
		st.BuildRounds += e.buildRounds
		st.SnapshotWrites += e.snapWrites
		st.SnapshotRestores += e.snapRestores
		st.SpillsElided += e.spillsElided
		st.PeerRestores += e.peerRestores
	}
	return st
}

// Snapshot returns the store-wide metrics: Totals plus one row per
// registered graph, sorted by id.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.totalsLocked()
	ids := make([]string, 0, len(s.ents))
	for id := range s.ents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := s.ents[id]
		st.PerGraph = append(st.PerGraph, GraphStats{
			ID: id, N: e.gr.N(), M: e.gr.M(),
			Resident: e.pg != nil, Bytes: e.bytes, Pins: e.pins,
			Hits: e.hits, Misses: e.misses, Builds: e.builds,
			Evictions: e.evictions, BuildRounds: e.buildRounds,
			LastAccessUnixMS: e.lastAccessMS,
			SnapshotRestores: e.snapRestores, SnapshotWrites: e.snapWrites,
			SpillsElided: e.spillsElided, PeerRestores: e.peerRestores,
		})
	}
	return st
}
