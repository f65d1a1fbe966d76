// Package core is the MLDS engine: the language interface layer (LIL), the
// database catalog, and the user sessions that tie the kernel mapping,
// kernel controller and kernel formatting subsystems together over the
// Multi-Backend Database System.
//
// The catalog mirrors the dbid_node union of the thesis's shared data
// structures: each database entry carries the model it was defined in. A
// CODASYL-DML session may open either a network database (served natively)
// or a functional database — in which case LIL invokes the schema
// transformer and the session operates on the transformed schema, which is
// the thesis's contribution.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/cdc"
	"mlds/internal/daplex"
	"mlds/internal/funcmodel"
	"mlds/internal/hiekms"
	"mlds/internal/hiemodel"
	"mlds/internal/kc"
	"mlds/internal/kdb"
	"mlds/internal/loader"
	"mlds/internal/mbds"
	"mlds/internal/netddl"
	"mlds/internal/netmodel"
	"mlds/internal/obs"
	"mlds/internal/plancache"
	"mlds/internal/relkms"
	"mlds/internal/relmodel"
	"mlds/internal/sql"
	"mlds/internal/xform"
)

// Sentinel errors for catalog lookups. Open errors wrap them, so callers
// distinguish "no such database" from "wrong model for this interface" with
// errors.Is.
var (
	// ErrNoDatabase reports a name absent from the catalog.
	ErrNoDatabase = errors.New("core: no such database")
	// ErrWrongModel reports a database whose model the requested language
	// interface cannot serve.
	ErrWrongModel = errors.New("core: language interface cannot serve this database model")
)

// Model identifies the data model a database was defined in. The catalog
// mirrors the full MLDS model set of Figure 1.2.
type Model int

// Database models.
const (
	NetworkModel Model = iota
	FunctionalModel
	HierarchicalModel
	RelationalModel
)

// String names the model.
func (m Model) String() string {
	switch m {
	case NetworkModel:
		return "network"
	case FunctionalModel:
		return "functional"
	case HierarchicalModel:
		return "hierarchical"
	case RelationalModel:
		return "relational"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Config configures the engine's kernel database systems and its
// observability.
type Config struct {
	Kernel mbds.Config // per-database kernel configuration

	// Metrics receives every database's counters and histograms; nil makes
	// the system create its own registry (exposed by System.Metrics).
	Metrics *obs.Registry
	// Tracing records a per-request span tree on every session Outcome.
	Tracing bool
	// SlowThreshold routes statements at or above this wall time into the
	// slow log (System.SlowLog); zero disables it.
	SlowThreshold time.Duration
	// SlowLogSize bounds the slow log ring (default 64).
	SlowLogSize int
	// PlanCacheSize bounds the shared statement-plan cache (parsed ASTs
	// keyed by language and normalized statement shape). Zero uses
	// plancache.DefaultSize; a negative size disables plan caching.
	PlanCacheSize int
}

// DefaultConfig uses a 4-backend kernel per database.
func DefaultConfig() Config {
	return Config{Kernel: mbds.DefaultConfig(4)}
}

// System is one MLDS instance.
type System struct {
	cfg     Config
	metrics *obs.Registry
	slow    *obs.SlowLog
	plans   *plancache.Cache

	mu  sync.Mutex
	dbs map[string]*Database
}

// Database is one catalog entry: its defining model, schemas, kernel
// database system and controller. A functional database additionally holds
// its transformed network schema (built when it is created, so CODASYL-DML
// sessions can open it immediately).
type Database struct {
	Name    string
	Model   Model
	Fun     *funcmodel.Schema // functional databases
	Mapping *xform.Mapping    // functional databases: the schema transformation
	Net     *netmodel.Schema  // network view (native or transformed)
	Rel     *relmodel.Schema  // relational databases
	Hie     *hiemodel.Schema  // hierarchical databases
	AB      *xform.ABSchema   // kernel schema (network/functional databases)
	Dir     *abdm.Directory   // kernel directory (all models)
	Kernel  *mbds.System
	Ctrl    *kc.Controller

	reg     *obs.Registry           // the system's metrics registry
	stmt    map[string]*stmtMetrics // per-language statement metrics, by Lang* name
	slow    *obs.SlowLog            // the system's slow-request log
	plans   *plancache.Cache        // the system's shared statement-plan cache
	tracing bool

	// Live materialized views (CREATE VIEW), keyed by lower-cased name. A nil
	// entry is a name reserved by an in-flight CREATE VIEW. watchSeq names
	// anonymous watches for their lag gauges.
	vmu      sync.Mutex
	views    map[string]*cdc.View
	watchSeq uint64
}

// NewSystem builds an empty MLDS instance.
func NewSystem(cfg Config) *System {
	if cfg.Kernel.Backends == 0 {
		cfg.Kernel = mbds.DefaultConfig(4)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	var plans *plancache.Cache
	if cfg.PlanCacheSize >= 0 {
		plans = plancache.New(cfg.PlanCacheSize)
	}
	return &System{
		cfg:     cfg,
		metrics: metrics,
		slow:    obs.NewSlowLog(cfg.SlowThreshold, cfg.SlowLogSize),
		plans:   plans,
		dbs:     make(map[string]*Database),
	}
}

// Metrics returns the system's metrics registry, ready for exposition via
// obs.Handler or mbdsnet.ServeOps.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// SlowLog returns the system's slow-request log.
func (s *System) SlowLog() *obs.SlowLog { return s.slow }

// Close shuts down every database's views and kernel — views first, so view
// maintenance never executes against a closed kernel.
func (s *System) Close() {
	s.mu.Lock()
	dbs := make([]*Database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.dbs = make(map[string]*Database)
	s.mu.Unlock()
	for _, db := range dbs {
		db.closeViews()
		db.Kernel.Close()
	}
}

// CreateFunctional defines a new functional database from Daplex DDL text.
// The schema transformer runs immediately, so the database is accessible to
// both the Daplex and the CODASYL-DML interfaces.
func (s *System) CreateFunctional(name, ddl string) (*Database, error) {
	fun, err := daplex.ParseSchema(ddl)
	if err != nil {
		return nil, err
	}
	m, err := xform.FunToNet(fun)
	if err != nil {
		return nil, err
	}
	ab, err := xform.DeriveAB(m)
	if err != nil {
		return nil, err
	}
	return s.register(&Database{
		Name: name, Model: FunctionalModel,
		Fun: fun, Mapping: m, Net: m.Net, AB: ab, Dir: ab.Dir,
	})
}

// CreateNetwork defines a new network database from CODASYL DDL text.
func (s *System) CreateNetwork(name, ddl string) (*Database, error) {
	net, err := netddl.Parse(ddl)
	if err != nil {
		return nil, err
	}
	ab, err := xform.DeriveABNative(net)
	if err != nil {
		return nil, err
	}
	return s.register(&Database{
		Name: name, Model: NetworkModel,
		Net: net, AB: ab, Dir: ab.Dir,
	})
}

// CreateHierarchical defines a new hierarchical database from DBD text,
// served by the DL/I language interface.
func (s *System) CreateHierarchical(name, dbd string) (*Database, error) {
	hie, err := hiemodel.Parse(dbd)
	if err != nil {
		return nil, err
	}
	dir, err := hiekms.DeriveAB(hie)
	if err != nil {
		return nil, err
	}
	return s.register(&Database{
		Name: name, Model: HierarchicalModel,
		Hie: hie, Dir: dir,
	})
}

// CreateRelational defines a new relational database from SQL CREATE TABLE
// text, served by the SQL language interface.
func (s *System) CreateRelational(name, ddl string) (*Database, error) {
	rel, err := sql.ParseDDL(name, ddl)
	if err != nil {
		return nil, err
	}
	dir, err := relkms.DeriveAB(rel)
	if err != nil {
		return nil, err
	}
	return s.register(&Database{
		Name: name, Model: RelationalModel,
		Rel: rel, Dir: dir,
	})
}

func (s *System) register(db *Database) (*Database, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.dbs[db.Name]; dup {
		return nil, fmt.Errorf("core: database %q already exists", db.Name)
	}
	kcfg := s.cfg.Kernel
	kcfg.Metrics = s.metrics
	kcfg.DBName = db.Name
	kernel, err := mbds.New(db.Dir, kcfg)
	if err != nil {
		return nil, err
	}
	db.Kernel = kernel
	db.Ctrl = kc.New(kernel, kc.WithMetrics(s.metrics, db.Name))
	db.reg = s.metrics
	db.stmt = make(map[string]*stmtMetrics, len(languages))
	for _, l := range languages {
		db.stmt[l.name] = newStmtMetrics(s.metrics, db.Name, l.name, s.plans != nil)
	}
	db.slow = s.slow
	db.plans = s.plans
	db.tracing = s.cfg.Tracing
	db.views = make(map[string]*cdc.View)
	s.dbs[db.Name] = db
	return db, nil
}

// Database looks a database up by name — the LIL flow: the network schemas
// are searched first, then the functional schemas.
func (s *System) Database(name string) (*Database, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[name]
	return db, ok
}

// DatabaseInfo describes one catalog entry.
type DatabaseInfo struct {
	Name     string
	Model    Model
	Backends int // kernel backends serving the database
	Records  int // record copies currently stored
}

// Databases lists the catalog sorted by name, so every listing (the REPL,
// tests, tooling) is deterministic.
func (s *System) Databases() []DatabaseInfo {
	s.mu.Lock()
	dbs := make([]*Database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.mu.Unlock()
	out := make([]DatabaseInfo, 0, len(dbs))
	for _, db := range dbs {
		out = append(out, DatabaseInfo{
			Name:     db.Name,
			Model:    db.Model,
			Backends: db.Kernel.Backends(),
			Records:  db.Kernel.Len(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup resolves a database name, wrapping ErrNoDatabase on a miss.
func (s *System) lookup(dbname string) (*Database, error) {
	db, ok := s.Database(dbname)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDatabase, dbname)
	}
	return db, nil
}

// LoadBatchSize is how many requests bulk loaders hand the kernel per
// batched round: large enough to amortize the per-round fan-out (one bus or
// wire message per backend per round), small enough to bound peak memory.
const LoadBatchSize = 256

// LoadInstance bulk-loads a functional database instance built with the
// loader, seeding the key allocator past the loaded keys. Requests go to
// the kernel in batched rounds of LoadBatchSize; on failure the returned
// count is the start of the failed round (later records of that round may
// or may not have applied).
func (db *Database) LoadInstance(inst *loader.Instance) (int, error) {
	tx, err := inst.Requests()
	if err != nil {
		return 0, err
	}
	for off := 0; off < len(tx); off += LoadBatchSize {
		end := min(off+LoadBatchSize, len(tx))
		if _, _, err := db.Kernel.ExecBatch(tx[off:end]); err != nil {
			return off, fmt.Errorf("core: loading records %d..%d: %w", off, end-1, err)
		}
	}
	db.Ctrl.SeedKeys(inst.MaxKey())
	return len(tx), nil
}

// ExecABDL gives direct kernel access: the attribute-based language
// interface of MLDS. The text is one ABDL request.
func (db *Database) ExecABDL(text string) (*kdb.Result, error) {
	req, err := abdl.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.Ctrl.Exec(req)
}
