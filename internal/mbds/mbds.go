// Package mbds implements the Multi-Backend Database System (MBDS), the
// kernel database system of MLDS.
//
// MBDS uses a software multiple-backend approach: a controller (the master)
// supervises transaction execution while N backends (the slaves) hold
// disjoint partitions of the database on their own disks and execute every
// request in parallel. The controller broadcasts each request over the
// communication bus, collects the partial results, and merges them.
//
// This implementation's bus is a call: a round gives each backend's share a
// goroutine of its own and calls the backend's Executor on it, so the
// backends work in parallel and one backend runs concurrent rounds' shares
// side by side. Each backend charges its work to a synthetic disk model;
// the controller's simulated response time for a request is the bus
// overhead plus the *maximum* backend time — the backends work in
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
//
// Where a record lives is a function, not state. The controller assigns
// every inserted record's database key, and the key alone names its
// holders: home(id, n) in a view of n backends, plus Replicas view
// successors. A membership change is one live migration between two views,
// which moves exactly the keys whose holder set differs. The invariant: at
// every view install, each live key sits exactly on the holders the rule
// names. So a fresh controller over the same partitions, in the same order,
// agrees with the one that wrote them — an undo restore after a restart
// lands on the partition that holds the key's history.
package mbds

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
)

// Config configures an MBDS instance.
type Config struct {
	Backends   int           // number of backends (>= 1)
	Disk       kdb.DiskModel // per-backend disk model
	MsgLatency time.Duration // simulated bus latency per message hop
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
	// re-homing its keys from the surviving copies (see
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
	closed   atomic.Bool
	closedCh chan struct{}  // closed by Close; ends retry backoffs and hang faults
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

	elastic elasticCounters
}

// Executor is one backend partition as the controller reaches it: a
// *kdb.Store in process, or an mbdsnet.RemoteBackend over TCP. ExecBatch
// takes a backend's share of a round — a remote backend sends it as one wire
// message — and executes it in order, writing one result per request into
// out (len(out) == len(reqs)); it stops at the first failure and returns
// that request's error. The other three are the live-migration verbs.
type Executor interface {
	ExecBatch(reqs []*abdl.Request, out []*kdb.Result) error
	ExportSince(since uint64, after abdm.RecordID, limit int) ([]kdb.MigRecord, abdm.RecordID, uint64, error)
	ImportPartition(recs []kdb.MigRecord) (int, error)
	DropRecords(ids []abdm.RecordID) (int, error)
}

// backend is one slave. The round calls bus on its own goroutine; migration
// traffic calls exec, the partition itself, so injected faults never reach
// it. store is exec when the partition is local, nil when it is remote.
type backend struct {
	id     int // stable id, survives membership changes
	exec   Executor
	bus    Executor        // exec, or faulty wrapping it
	store  *kdb.Store      // read by observability and tests, not the request path
	faulty *FaultyExecutor // non-nil when Config.FaultInjection is set

	// late is closed once every attempt abandoned at its deadline has
	// finished; nil when none is running. The next call on the backend
	// waits for it, so a retry never races the attempt it replaced.
	lateMu sync.Mutex
	late   chan struct{}

	hmu    sync.Mutex
	health health

	metrics backendMetrics
}

// newBackend builds one backend over the executor. store is the executor
// when it is a local store, nil for remote executors.
func (s *System) newBackend(id int, exec Executor, store *kdb.Store) *backend {
	b := &backend{id: id, exec: exec, bus: exec, store: store}
	b.health.up = true
	if s.cfg.FaultInjection {
		b.faulty = NewFaultyExecutor(exec)
		b.faulty.closed = s.closedCh
		b.bus = b.faulty
	}
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
	s := &System{cfg: cfg, dir: dir, closedCh: make(chan struct{})}
	for i := 0; i < cfg.Backends; i++ {
		store, err := s.newLocalStore(i)
		if err != nil {
			return nil, fmt.Errorf("mbds: opening backend %d store: %w", i, err)
		}
		s.view = append(s.view, s.newBackend(i, store, store))
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
// configuration. The config's Backends count is ignored. The controller
// assigns every inserted record's database key itself, so the executors' own
// allocators are never consulted.
func NewWithExecutors(dir *abdm.Directory, cfg Config, execs []Executor) (*System, error) {
	if len(execs) < 1 {
		return nil, fmt.Errorf("mbds: need at least 1 executor")
	}
	if cfg.Disk.BlockFactor == 0 {
		cfg.Disk = kdb.DefaultDiskModel()
	}
	cfg.Backends = len(execs)
	s := &System{cfg: cfg, dir: dir, closedCh: make(chan struct{})}
	for i, ex := range execs {
		s.view = append(s.view, s.newBackend(i, ex, nil))
	}
	s.finishInit()
	return s, nil
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

// Close shuts the system down. Concurrent Exec-family calls return
// ErrClosed (or their result, if already in flight); the system must not be
// used afterwards. Closing releases every hang fault first, so the wait for
// in-flight operations cannot wedge on one.
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

// home is the placement rule: the view position of the primary holder of
// database key id in a view of n backends. Fibonacci hashing scatters the
// key over the 64-bit circle, and the high word of its product with n cuts
// that circle into n equal arcs, so consecutive keys spread evenly whatever
// the period of the insert stream.
func home(id abdm.RecordID, n int) int {
	hi, _ := bits.Mul64(uint64(id)*0x9E3779B97F4A7C15, uint64(n))
	return int(hi)
}

// isHolder is the replica rule: view position p holds a copy of a key whose
// primary sits at position home in a view of n backends when p is the
// primary or one of its Replicas successors in view order (capped at n).
func (s *System) isHolder(p, home, n int) bool {
	return (p-home+n)%n < s.holders(n)
}

// holders is the size of a key's holder set in a view of n backends.
func (s *System) holders(n int) int { return min(s.cfg.Replicas+1, n) }

// holdersOf is the holder set the rule names for a key in the view: its
// home, then the home's successors in view order.
func (s *System) holdersOf(view []*backend, id abdm.RecordID) []*backend {
	n := len(view)
	h := home(id, n)
	out := make([]*backend, s.holders(n))
	for i := range out {
		out[i] = view[(h+i)%n]
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
