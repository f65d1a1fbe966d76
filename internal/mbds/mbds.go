// Package mbds implements the Multi-Backend Database System (MBDS), the
// kernel database system of MLDS.
//
// MBDS uses a software multiple-backend approach: a controller (the master)
// supervises transaction execution while N backends (the slaves) hold
// disjoint partitions of the database on their own disks and execute every
// request in parallel. The controller broadcasts each request over the
// communication bus, collects the partial results, and merges them.
//
// This implementation runs the controller and the backends as goroutines
// joined by channels (the bus). Each backend charges its work to a synthetic
// disk model; the controller's simulated response time for a request is the
// bus overhead plus the *maximum* backend time — the backends work in
// parallel — which is what produces the paper's two performance claims:
// response time falls near-reciprocally as backends are added at fixed
// database size, and stays invariant when the database grows proportionally
// with the backends.
//
// The controller additionally hardens the bus against backend failure:
// per-request deadlines, bounded retries with exponential backoff for
// transient failures, a per-backend circuit breaker with half-open probing
// (surfaced by Health), and replicated record placement (Config.Replicas)
// under which broadcasts tolerate down backends and still return complete,
// deduplicated results — degraded-mode reads.
package mbds

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
)

// Placement selects how INSERTed records are distributed across backends.
type Placement int

// Placement policies.
const (
	// RoundRobin spreads each file's records evenly in arrival order — the
	// paper's cluster-spreading data placement, with the file as the
	// cluster. Keeping a cursor per file (rather than one global cursor)
	// prevents correlated insert patterns from phase-locking a file's
	// records onto a subset of the backends.
	RoundRobin Placement = iota
	// HashKeywords places each record by a hash of its keyword content, so
	// identical logical databases land identically regardless of load order.
	HashKeywords
)

// Config configures an MBDS instance.
type Config struct {
	Backends   int           // number of backends (>= 1)
	Disk       kdb.DiskModel // per-backend disk model
	Placement  Placement     // record placement policy
	MsgLatency time.Duration // simulated bus latency per message hop
	Serial     bool          // ablation: dispatch to backends one at a time
	NoIndexes  bool          // ablation: backends scan instead of indexing

	// Fault tolerance. Replicas > 0 makes INSERT write each record to its
	// primary backend plus that many successor backends under one database
	// key; broadcasts then tolerate up to Replicas failed backends and
	// return complete results with controller-side dedup (degraded mode).
	Replicas         int           // extra copies of each record (0 = none)
	RequestTimeout   time.Duration // per-backend request deadline (0 = none)
	MaxRetries       int           // retries per request on transient failures
	RetryBackoff     time.Duration // base retry backoff, doubling per retry
	BreakerThreshold int           // consecutive transient failures that open the breaker (0 = never)
	ProbePeriod      time.Duration // how often a down backend is probed (0 = every request)
	FaultInjection   bool          // wrap each executor in a FaultyExecutor (see System.Fault)

	// Elastic membership. FailoverAfter > 0 starts a monitor that removes a
	// backend whose circuit breaker has been open for at least that long,
	// promoting replica successors to primary for its keys (see
	// System.RemoveBackend). FailoverCheck is the monitor's poll period
	// (default FailoverAfter / 4).
	FailoverAfter time.Duration
	FailoverCheck time.Duration

	// Observability. With a registry the system records per-database and
	// per-backend request, retry, breaker-trip, dedup and queue-depth
	// series labelled db=DBName; nil disables metrics at zero cost.
	Metrics *obs.Registry
	DBName  string

	// StoreOpener, when set, builds each local backend's store in place of
	// kdb.NewStore — e.g. kdb.CreateBacked/OpenBacked for a paged on-disk
	// partition. It receives the backend's position and the base options the
	// system would have used (disk model, shared key allocator, index
	// policy); implementations should pass them through.
	StoreOpener func(pos int, dir *abdm.Directory, opts []kdb.Option) (*kdb.Store, error)
}

// DefaultConfig returns a configuration with n backends, the default disk
// model and bus latency, and a modest retry/breaker policy.
func DefaultConfig(n int) Config {
	return Config{
		Backends:         n,
		Disk:             kdb.DefaultDiskModel(),
		MsgLatency:       2 * time.Millisecond,
		MaxRetries:       2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 5,
		ProbePeriod:      250 * time.Millisecond,
	}
}

// System is one MBDS instance: a controller plus its backends.
//
// Membership is dynamic: the active backend list (the view) is versioned by
// a membership epoch and replaced copy-on-write by AddBackend, DrainBackend
// and RemoveBackend, so in-flight operations always work against one
// consistent view. Each backend has a stable id that survives membership
// changes; positional APIs (Fault, Health, the membership methods) index the
// current view.
type System struct {
	cfg      Config
	dir      *abdm.Directory
	nextID   atomic.Uint64
	rrMu     sync.Mutex
	rr       map[string]uint64 // per-file round-robin cursors
	placeMu  sync.Mutex
	placed   map[abdm.RecordID]*backend // database key -> primary backend
	closed   atomic.Bool
	closedCh chan struct{}  // closed by Close; aborts blocked bus operations
	closeMu  sync.RWMutex   // orders beginOp's opWG.Add before Close's opWG.Wait
	opWG     sync.WaitGroup // in-flight Exec-family operations
	metrics  sysMetrics

	// Membership: the versioned placement view. vmu guards the slice header
	// and epoch; the slice itself is never mutated in place, so a snapshot
	// taken under vmu stays consistent for the whole operation.
	vmu     sync.RWMutex
	view    []*backend
	epoch   uint64 // membership epoch, bumped by every view change
	nextBID int    // next stable backend id

	// Live migration. memMu serializes membership changes; fence is the
	// write fence every Exec-family entry point shares and a migration's
	// final catch-up round takes exclusively; migLog accumulates the
	// placement-pinned mutations and MVCC control ops executed while a
	// migration is in flight (migOn), for catch-up replay under the fence.
	memMu  sync.Mutex
	fence  sync.RWMutex
	migOn  atomic.Bool
	migMu  sync.Mutex
	migLog []*abdl.Request

	// Failover monitor (Config.FailoverAfter > 0).
	stopMon chan struct{}
	monWG   sync.WaitGroup
	bgWG    sync.WaitGroup // background re-replication after a removal

	elastic elasticCounters
}

// Executor executes ABDL requests against one backend partition. Local
// backends use a kdb.Store; remote backends (package mbdsnet) satisfy it
// over TCP.
type Executor interface {
	Exec(*abdl.Request) (*kdb.Result, error)
}

// BatchExecutor is implemented by remote executors that take a backend's
// whole share of a round in one call — mbdsnet.RemoteBackend, as a single
// wire message. Local stores, and executors without it, are fed a share one
// request at a time.
type BatchExecutor interface {
	ExecBatch([]*abdl.Request) ([]*kdb.Result, error)
}

// backend is one slave: its executor plus the goroutine that serves its
// side of the bus. store is nil for remote backends.
type backend struct {
	id     int // stable id, survives membership changes
	exec   Executor
	store  *kdb.Store
	faulty *FaultyExecutor // non-nil when Config.FaultInjection is set
	reqCh  chan job
	quit   chan struct{} // closed on retirement; stops the serve loop
	done   chan struct{}
	once   sync.Once // guards quit: Close and a prior drain may both retire

	hmu    sync.Mutex
	health health

	metrics backendMetrics
}

// retire stops the backend's serve loop. Safe to call more than once (a
// drained backend is retired by the drain and again by Close).
func (b *backend) retire() { b.once.Do(func() { close(b.quit) }) }

// job is one bus message: a backend's share of a round. The backend writes
// one result per request into out and replies with the share's error.
type job struct {
	reqs  []*abdl.Request
	out   []*kdb.Result
	reply chan error // buffered (cap 1): serve never blocks on a reply
}

// newBackend builds one backend over the executor and starts its serve
// loop. store is the executor's local store, nil for remote executors.
func newBackend(id int, exec Executor, store *kdb.Store, faults bool) *backend {
	b := &backend{
		id:    id,
		exec:  exec,
		store: store,
		reqCh: make(chan job),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	b.health.up = true
	if faults {
		b.faulty = NewFaultyExecutor(exec)
		b.exec = b.faulty
	}
	go b.serve()
	return b
}

// New builds and starts an MBDS instance over the directory.
func New(dir *abdm.Directory, cfg Config) (*System, error) {
	if cfg.Backends < 1 {
		return nil, fmt.Errorf("mbds: need at least 1 backend, got %d", cfg.Backends)
	}
	if cfg.Disk.BlockFactor == 0 {
		cfg.Disk = kdb.DefaultDiskModel()
	}
	s := &System{cfg: cfg, dir: dir, rr: make(map[string]uint64),
		placed: make(map[abdm.RecordID]*backend), closedCh: make(chan struct{})}
	for i := 0; i < cfg.Backends; i++ {
		store, err := s.newLocalStore(i)
		if err != nil {
			for _, b := range s.view {
				b.retire()
			}
			return nil, fmt.Errorf("mbds: opening backend %d store: %w", i, err)
		}
		s.view = append(s.view, newBackend(i, store, store, cfg.FaultInjection))
	}
	s.finishInit()
	return s, nil
}

// newLocalStore builds one backend partition store wired to the system's
// shared key allocator and configuration. pos is the backend's position at
// creation, which Config.StoreOpener implementations typically map to a
// partition file path.
func (s *System) newLocalStore(pos int) (*kdb.Store, error) {
	opts := []kdb.Option{
		kdb.WithDisk(s.cfg.Disk),
		kdb.WithIDAllocator(func() abdm.RecordID {
			return abdm.RecordID(s.nextID.Add(1))
		}),
	}
	if s.cfg.NoIndexes {
		opts = append(opts, kdb.WithoutIndexes())
	}
	if s.cfg.StoreOpener != nil {
		return s.cfg.StoreOpener(pos, s.dir.Clone(), opts)
	}
	return kdb.NewStore(s.dir.Clone(), opts...), nil
}

// finishInit completes construction common to both constructors: epoch and
// id bookkeeping, metrics, and the failover monitor.
func (s *System) finishInit() {
	s.nextBID = len(s.view)
	s.epoch = 1
	s.initMetrics()
	for _, b := range s.view {
		s.initBackendMetrics(b)
	}
	s.metrics.membershipEpoch.Set(int64(s.epoch))
	if s.cfg.FailoverAfter > 0 {
		s.stopMon = make(chan struct{})
		s.monWG.Add(1)
		go s.failoverMonitor()
	}
}

// NewWithExecutors builds an MBDS instance whose backends are the given
// executors — typically mbdsnet.RemoteBackend clients, making the controller
// local and the backends remote machines, as in the original hardware
// configuration. The config's Backends count is ignored. With Replicas > 0
// the controller assigns every inserted record's database key itself, so the
// executors' own allocators are never consulted.
func NewWithExecutors(dir *abdm.Directory, cfg Config, execs []Executor) (*System, error) {
	if len(execs) < 1 {
		return nil, fmt.Errorf("mbds: need at least 1 executor")
	}
	if cfg.Disk.BlockFactor == 0 {
		cfg.Disk = kdb.DefaultDiskModel()
	}
	cfg.Backends = len(execs)
	s := &System{cfg: cfg, dir: dir, rr: make(map[string]uint64),
		placed: make(map[abdm.RecordID]*backend), closedCh: make(chan struct{})}
	for i, ex := range execs {
		s.view = append(s.view, newBackend(i, ex, nil, cfg.FaultInjection))
	}
	s.finishInit()
	return s, nil
}

// serve is the backend's message loop: receive a share, execute it against
// the partition, reply with the outcome. The loop stops when the system
// closes; reqCh itself is never closed, so a racing dispatch can never panic
// on it.
func (b *backend) serve() {
	defer close(b.done)
	for {
		select {
		case j := <-b.reqCh:
			j.reply <- b.run(j.reqs, j.out)
		case <-b.quit:
			return
		}
	}
}

// run executes a share in order, writing one result per request into out. A
// remote executor implementing BatchExecutor (mbdsnet.RemoteBackend) takes
// the whole share as one wire message; a local store, or a fault-injecting
// wrapper, takes one request at a time, so faults still hit each request.
func (b *backend) run(reqs []*abdl.Request, out []*kdb.Result) error {
	if be, ok := b.exec.(BatchExecutor); ok && b.store == nil {
		res, err := be.ExecBatch(reqs)
		copy(out, res)
		return err
	}
	for i, req := range reqs {
		res, err := b.exec.Exec(req)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// viewSnap returns the current backend view. The returned slice is
// immutable — membership changes install a fresh slice — so callers may
// iterate it without further locking.
func (s *System) viewSnap() []*backend {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.view
}

// MembershipEpoch reports the current membership epoch; it advances by one
// on every view change (add, drain, removal).
func (s *System) MembershipEpoch() uint64 {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.epoch
}

// Fault returns backend i's fault-injection handle, or nil unless the
// system was built with Config.FaultInjection. i indexes the current view.
func (s *System) Fault(i int) *FaultyExecutor { return s.viewSnap()[i].faulty }

// Close shuts the backends down. Concurrent Exec-family calls return
// ErrClosed (or their result, if already in flight); the system must not be
// used afterwards.
func (s *System) Close() {
	s.closeMu.Lock()
	already := s.closed.Swap(true)
	s.closeMu.Unlock()
	if already {
		return
	}
	close(s.closedCh)
	if s.stopMon != nil {
		close(s.stopMon)
		s.monWG.Wait()
	}
	s.opWG.Wait()
	s.bgWG.Wait()
	view := s.viewSnap()
	for _, b := range view {
		b.retire()
		if b.faulty != nil {
			// A hang fault must not wedge shutdown.
			b.faulty.releaseHangs()
		}
	}
	grace := 2 * s.cfg.RequestTimeout
	for _, b := range view {
		if grace > 0 {
			// A backend wedged past its deadline (a hang fault inside a
			// wrapped executor) is abandoned rather than waited for.
			select {
			case <-b.done:
			case <-time.After(grace):
			}
		} else {
			<-b.done
		}
	}
}

// beginOp registers an in-flight operation, refusing if the system is
// closed. Callers must pair it with s.opWG.Done().
func (s *System) beginOp() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.opWG.Add(1)
	return nil
}

// Backends reports the number of backends in the current view.
func (s *System) Backends() int { return len(s.viewSnap()) }

// Store returns the local store of the backend at position pos in the
// current view, or nil for remote backends. Checkpoint hosts use it to
// reach a paged-backed partition.
func (s *System) Store(pos int) *kdb.Store {
	view := s.viewSnap()
	if pos < 0 || pos >= len(view) {
		return nil
	}
	return view[pos].store
}

// seedNextID advances the shared key allocator to at least id.
func (s *System) seedNextID(id uint64) {
	for {
		cur := s.nextID.Load()
		if id <= cur || s.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// SeedIDs advances the shared database-key allocator past max. Recovery
// calls it after mounting a checkpoint image whose metadata records the
// key high water, so new inserts never collide with restored records.
func (s *System) SeedIDs(max uint64) { s.seedNextID(max) }

// Directory returns the controller's attribute catalog.
func (s *System) Directory() *abdm.Directory { return s.dir }

// lenOf reports one backend's record count, asking remote backends over the
// bus.
func (b *backend) lenOf() int {
	if b.store != nil {
		return b.store.Len()
	}
	if rl, ok := b.exec.(interface{ Len() (int, error) }); ok {
		if n, err := rl.Len(); err == nil {
			return n
		}
	}
	return 0
}

// Len reports the total number of record copies across all backends. With
// Replicas > 0 each logical record is counted once per copy.
func (s *System) Len() int {
	n := 0
	for _, b := range s.viewSnap() {
		n += b.lenOf()
	}
	return n
}

// PartitionSizes reports each backend's record count, in view order.
func (s *System) PartitionSizes() []int {
	view := s.viewSnap()
	out := make([]int, len(view))
	for i, b := range view {
		out[i] = b.lenOf()
	}
	return out
}

// StoreStats sums the lifetime kdb statistics (requests, disk-model cost,
// result-cache hits and misses) of every local backend partition. Remote
// backends hold no local store and contribute nothing — their stats are
// scraped from their own daemons' /metrics.
func (s *System) StoreStats() kdb.Stats {
	var out kdb.Stats
	for _, b := range s.viewSnap() {
		if b.store == nil {
			continue
		}
		st := b.store.Stats()
		out.Requests += st.Requests
		out.Errors += st.Errors
		out.BlocksRead += st.BlocksRead
		out.BlocksWrit += st.BlocksWrit
		out.RecordsExam += st.RecordsExam
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
	}
	return out
}

// ErrClosed is returned by operations on a closed system.
var ErrClosed = errors.New("mbds: system is closed")

// placePos picks the primary position in an n-backend view for an inserted
// record, by content hash or per-file round robin.
func (s *System) placePos(rec *abdm.Record, n int) int {
	switch s.cfg.Placement {
	case HashKeywords:
		h := fnv.New64a()
		_, _ = h.Write([]byte(rec.Key()))
		return int(h.Sum64() % uint64(n))
	default:
		s.rrMu.Lock()
		defer s.rrMu.Unlock()
		file := rec.File()
		c := s.rr[file]
		s.rr[file] = c + 1
		return int(c % uint64(n))
	}
}

// insertHome picks the view position of an insert's primary backend. A
// request that carries a database key (an undo restore, a replay, a
// replicated copy) belongs to the backend that already holds that key's
// record versions, so a recorded placement wins over content routing —
// otherwise an aborted transaction's restore could migrate the record away
// from its MVCC version chain and a later snapshot would see the key on two
// partitions. A recorded backend that has left the view (it was removed
// between the key's last write and now) falls back to content routing.
func (s *System) insertHome(req *abdl.Request, view []*backend) int {
	if req.ForceID != 0 {
		s.placeMu.Lock()
		b, ok := s.placed[req.ForceID]
		s.placeMu.Unlock()
		if ok {
			for p, v := range view {
				if v == b {
					return p
				}
			}
		}
	}
	return s.placePos(req.Record, len(view))
}

// notePlacement records which backend is primary for a database key. Entries
// are kept after deletion — an aborted delete restores the record under the
// same key and must land on the same partition — and are evicted when
// watermark GC removes the key's entire version chain (no snapshot can reach
// the key any more) or when membership changes reassign it.
func (s *System) notePlacement(id abdm.RecordID, primary *backend) {
	if id == 0 {
		return
	}
	s.placeMu.Lock()
	s.placed[id] = primary
	s.metrics.placedKeys.Set(int64(len(s.placed)))
	s.placeMu.Unlock()
}

// evictPlaced forgets the placement of keys whose version chains are gone:
// once watermark GC (or an abort that erased a key's only history) removed a
// chain everywhere, no undo restore or snapshot read can address the key
// again, so the sticky-placement map stays bounded by the live key count.
func (s *System) evictPlaced(ids []abdm.RecordID) {
	if len(ids) == 0 {
		return
	}
	s.placeMu.Lock()
	for _, id := range ids {
		delete(s.placed, id)
	}
	s.metrics.placedKeys.Set(int64(len(s.placed)))
	s.placeMu.Unlock()
}

// PlacedKeys reports the size of the sticky-placement map.
func (s *System) PlacedKeys() int {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	return len(s.placed)
}

// isHolder is the replica rule: view position p holds a copy of a key whose
// primary sits at position home in a view of n backends when p is the
// primary or one of its Replicas successors in view order (capped at n).
func (s *System) isHolder(p, home, n int) bool {
	return (p-home+n)%n < s.holders(n)
}

// holders is the size of a key's holder set in a view of n backends.
func (s *System) holders(n int) int { return min(s.cfg.Replicas+1, n) }

// holdersIn expands a primary backend into its holder set within the view,
// primary first, then its successors in view order. A primary not in the
// view yields just itself.
func (s *System) holdersIn(view []*backend, primary *backend) []*backend {
	home := slices.Index(view, primary)
	if home < 0 {
		return []*backend{primary}
	}
	n := len(view)
	out := make([]*backend, 0, s.holders(n))
	for i := range n {
		if p := (home + i) % n; s.isHolder(p, home, n) {
			out = append(out, view[p])
		}
	}
	return out
}

// logCatchup appends a successfully executed request to the migration
// catch-up log when a migration is in flight. Only placement-pinned
// mutations (ForceID inserts and deletes — the undo path's NoVersion
// operations that version-chain export cannot see) and the MVCC control ops
// (commit stamps and aborts that may race an imported pending version) need
// replay; every other mutation writes a version and is carried by the
// migration's epoch-bounded export rounds.
func (s *System) logCatchup(req *abdl.Request) {
	if !s.migOn.Load() {
		return
	}
	switch req.Kind {
	case abdl.Insert, abdl.Delete:
		if req.ForceID == 0 {
			return
		}
	case abdl.MvccCommit, abdl.MvccAbort:
	default:
		return
	}
	s.migMu.Lock()
	if s.migOn.Load() {
		s.migLog = append(s.migLog, req)
		s.metrics.migCatchup.Inc()
		s.elastic.catchup.Add(1)
	}
	s.migMu.Unlock()
}

// GetByID fetches a record by database key from whichever local backend
// holds it. Remote backends are not consulted; kernel lookups over the bus
// go through ABDL retrieves on key attributes instead.
func (s *System) GetByID(id abdm.RecordID) (*abdm.Record, bool) {
	for _, b := range s.viewSnap() {
		if b.store == nil {
			continue
		}
		if rec, ok := b.store.GetByID(id); ok {
			return rec, true
		}
	}
	return nil, false
}

// Snapshot returns every record in the system ordered by database key,
// deduplicated across replicas. A remote partition that cannot be read is
// an error — unless surviving replicas cover it — so save/restore can never
// silently lose a partition.
func (s *System) Snapshot() ([]kdb.StoredRecord, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.opWG.Done()
	s.fence.RLock()
	defer s.fence.RUnlock()
	var all []kdb.StoredRecord
	var firstErr error
	failed := 0
	for _, b := range s.viewSnap() {
		if b.store != nil {
			recs, err := b.store.Snapshot()
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			all = append(all, recs...)
			continue
		}
		// Remote partition: an unqualified retrieve addresses all of it.
		res, err := s.callBackend(b, []*abdl.Request{abdl.NewRetrieve(nil, abdl.AllAttrs)}, make([]*kdb.Result, 1))
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		all = append(all, res[0].Records...)
	}
	if failed > 0 && failed > s.cfg.Replicas {
		return nil, fmt.Errorf("mbds: snapshot lost a partition: %w", firstErr)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	// Replicas return identical copies under one key; keep the first.
	out := all[:0]
	var last abdm.RecordID
	for i, sr := range all {
		if i > 0 && sr.ID == last {
			continue
		}
		out = append(out, sr)
		last = sr.ID
	}
	return out, nil
}
