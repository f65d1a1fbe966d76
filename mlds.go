// Package mlds is a Go implementation of the Multi-Lingual Database System
// (MLDS) of the Naval Postgraduate School Laboratory for Database Systems
// Research, including the first Multi-Model Database System interface:
// accessing a functional (Daplex) database via CODASYL-DML transactions.
//
// MLDS maps every user data model onto a single kernel: the attribute-based
// data model (ABDM) with its data language ABDL, executed by the
// Multi-Backend Database System (MBDS) — a controller plus N parallel
// backends, each owning a partition of the database on its own (simulated)
// disk. Each language interface is the LIL → KMS → KC → KFS pipeline of the
// original system.
//
// # Quick start
//
//	sys := mlds.New(mlds.DefaultConfig())
//	defer sys.Close()
//
//	db, err := sys.CreateFunctional("university", mlds.UniversityDDL)
//	// load data, then access the *functional* database via CODASYL-DML:
//	sess, err := sys.Open("university", "dml")
//	sess.Execute("MOVE 'Advanced Database' TO title IN course")
//	sess.Execute("FIND ANY course USING title IN course")
//	out, err := sess.Execute("GET course")
//
// The same database answers Daplex through sys.Open("university", "daplex")
// and raw ABDL through db.ExecABDL — one kernel, many languages. The same
// sessions are served remotely by cmd/mldsserver; mlds.Dial connects to one
// and hands back Session values with the network in between.
package mlds

import (
	"context"
	"io"
	"time"

	"mlds/client"

	"mlds/internal/abdm"
	"mlds/internal/cdc"
	"mlds/internal/core"
	"mlds/internal/dapkms"
	"mlds/internal/hiekms"
	"mlds/internal/kdb"
	"mlds/internal/kfs"
	"mlds/internal/kms"
	"mlds/internal/loader"
	"mlds/internal/mbds"
	"mlds/internal/netmodel"
	"mlds/internal/relkms"
	"mlds/internal/txn"
	"mlds/internal/univ"
	"mlds/internal/univgen"
	"mlds/internal/wire"
)

// Core engine types.
type (
	// System is one MLDS instance: a catalog of databases, each served by
	// its own multi-backend kernel, shared by every language interface.
	System = core.System
	// Database is one catalog entry with its schemas and kernel.
	Database = core.Database
	// Config configures the engine.
	Config = core.Config
	// Model identifies a database's defining data model.
	Model = core.Model
	// Session is one user's session on a database in one language, opened
	// by System.Open (or, remotely, Client.Open).
	Session = core.Session
	// DatabaseInfo describes one catalog entry in a Databases listing.
	DatabaseInfo = core.DatabaseInfo
	// SessionOption configures a session at open time.
	SessionOption = core.SessionOption
	// ResultSet is a SQL statement result.
	ResultSet = relkms.ResultSet
	// DLIOutcome is a DL/I call result.
	DLIOutcome = hiekms.Outcome
	// Outcome is the unified result of one statement through any language
	// interface: timing, optional trace, rendered text, and the typed payload.
	Outcome = core.Outcome
	// DMLOutcome reports what one CODASYL-DML statement did (Outcome.DML).
	DMLOutcome = kms.Outcome
	// Row is one entity of a Daplex FOR EACH result.
	Row = dapkms.Row
	// Value is a typed attribute value of the kernel data model.
	Value = abdm.Value
	// Result is a kernel-level (ABDL) execution result.
	Result = kdb.Result
	// KernelConfig configures a database's multi-backend kernel.
	KernelConfig = mbds.Config
	// DiskModel is the synthetic per-backend disk cost model.
	DiskModel = kdb.DiskModel
	// NetworkSchema is a CODASYL network schema (native or transformed).
	NetworkSchema = netmodel.Schema
	// Instance is a functional database instance under construction.
	Instance = loader.Instance
)

// Database models.
const (
	NetworkModel      = core.NetworkModel
	FunctionalModel   = core.FunctionalModel
	HierarchicalModel = core.HierarchicalModel
	RelationalModel   = core.RelationalModel
)

// New builds an MLDS instance.
func New(cfg Config) *System { return core.NewSystem(cfg) }

// DefaultConfig serves each database with a 4-backend kernel.
func DefaultConfig() Config { return core.DefaultConfig() }

// KernelWith returns a Config whose databases run on n parallel backends.
func KernelWith(n int) Config { return Config{Kernel: mbds.DefaultConfig(n)} }

// Value constructors for UWA assignments and instance building.
var (
	// Int builds an integer value.
	Int = abdm.Int
	// Float builds a floating-point value.
	Float = abdm.Float
	// String builds a string value.
	String = abdm.String
	// Null builds the NULL value.
	Null = abdm.Null
)

// UniversityDDL is Shipman's University database schema (the running example
// of the thesis, Figure 2.1) in Daplex DDL.
const UniversityDDL = univ.SchemaDDL

// UniversityConfig sizes a generated University instance.
type UniversityConfig = univgen.Config

// SmallUniversity is a compact instance configuration.
func SmallUniversity() UniversityConfig { return univgen.SmallConfig() }

// PopulateUniversity generates a deterministic University instance for a
// database created from UniversityDDL and loads it, returning the number of
// kernel records inserted.
func PopulateUniversity(db *Database, cfg UniversityConfig) (int, error) {
	inst, err := univgen.Populate(db.Mapping, db.AB, cfg)
	if err != nil {
		return 0, err
	}
	return db.LoadInstance(inst)
}

// Formatting helpers (the kernel formatting system).
var (
	// FormatOutcome renders a DML outcome for display.
	FormatOutcome = kfs.FormatOutcome
	// FormatRows renders Daplex rows as an aligned table.
	FormatRows = kfs.FormatRows
	// FormatRowsAuto renders Daplex rows with an inferred print list.
	FormatRowsAuto = kfs.FormatRowsAuto
	// FormatResultSet renders a SQL result set.
	FormatResultSet = kfs.FormatResultSet
	// FormatDLI renders a DL/I call outcome.
	FormatDLI = kfs.FormatDLI
	// FormatResult renders a kernel result.
	FormatResult = kfs.FormatResult
)

// CODASYL-DML run-unit helpers.
var (
	// RunScript runs a CODASYL-DML transaction script (statements plus
	// PERFORM UNTIL END-OF-SET loops) on a session, one Execute per
	// statement, inside the session's transaction.
	RunScript = core.RunScript
	// CIT returns a local CODASYL-DML session's currency indicator table.
	CIT = core.CIT
)

// Catalog lookup sentinels, for errors.Is on Open errors.
var (
	// ErrNoDatabase reports a name absent from the catalog.
	ErrNoDatabase = core.ErrNoDatabase
	// ErrWrongModel reports a model the requested interface cannot serve.
	ErrWrongModel = core.ErrWrongModel
	// ErrUnknownLanguage reports a language name Open does not recognise.
	ErrUnknownLanguage = core.ErrUnknownLanguage
	// ErrNoTxn reports a COMMIT or ROLLBACK with no transaction open.
	ErrNoTxn = core.ErrNoTxn
)

// Code is the stable machine-readable error code carried by every Outcome
// and by the wire protocol (see internal/wire for the frozen table). CodeOf
// classifies any error from Open, Execute or the transaction methods.
type Code = wire.Code

// CodeOf classifies an error into its stable wire code.
func CodeOf(err error) Code { return core.CodeOf(err) }

// Remote access: the serving tier (cmd/mldsserver) exposes a System over
// TCP; Dial connects to it and Client.Open returns Session values that
// behave exactly like local ones.
type (
	// Client is one multiplexed client connection to an MLDS server.
	Client = client.Client
	// RemoteSession is a session served over the network; it implements
	// Session.
	RemoteSession = client.Session
	// RemoteError is a typed server failure with its wire code.
	RemoteError = client.Error
	// DialOption configures Dial (client.WithTimeout).
	DialOption = client.Option
)

// Dial connects to an MLDS server (cmd/mldsserver).
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	return client.Dial(ctx, addr, opts...)
}

// Transaction errors. Every session is transactional: statements
// auto-commit unless BEGIN WORK (or Session.Begin) opened an explicit
// transaction. When the transaction manager aborts a transaction — deadlock
// victim or lock timeout — the statement fails with a *TxnAbortedError
// wrapping the cause; the client retries from BEGIN.
var (
	// ErrDeadlock is the cause when the transaction was the chosen victim
	// of a detected deadlock (errors.Is against a failed statement).
	ErrDeadlock = txn.ErrDeadlock
	// ErrLockTimeout is the cause when a lock wait exceeded the limit.
	ErrLockTimeout = txn.ErrLockTimeout
	// ErrReadOnly reports a mutation attempted in a read-only snapshot
	// transaction (BEGIN WORK READ ONLY, or a SnapshotSession).
	ErrReadOnly = txn.ErrReadOnly
	// SnapshotSession makes every implicit statement of a session run in
	// its own read-only snapshot transaction: lock-free reads that never
	// wait on writers. Pass it to System.Open.
	SnapshotSession = core.SnapshotSession
)

// TxnAbortedError reports a statement whose transaction the manager rolled
// back; use errors.As to retrieve it and errors.Is for the cause.
type TxnAbortedError = txn.AbortedError

// Change capture. Every Session (embedded or remote) answers WATCH <select>
// and Session.Watch with a *Watcher: a snapshot-consistent load of the
// current matches, then exactly the committed changes after the snapshot, in
// commit order, losslessly. CREATE VIEW <name> AS <select> maintains a
// materialized view incrementally from the same stream.
type (
	// Watcher is one live change subscription; consume its C channel.
	Watcher = cdc.Watcher
	// Change is one event on a watch.
	Change = cdc.Change
	// ChangeOp classifies a Change.
	ChangeOp = cdc.Op
	// View is one incrementally-maintained materialized view.
	View = cdc.View
)

// Change operations: the initial load (OpLoad... OpReady), then
// OpInsert/OpUpdate/OpDelete in commit order; OpResync announces the journal
// was compacted past the watch and a fresh load follows.
const (
	OpLoad   = cdc.OpLoad
	OpReady  = cdc.OpReady
	OpInsert = cdc.OpInsert
	OpUpdate = cdc.OpUpdate
	OpDelete = cdc.OpDelete
	OpResync = cdc.OpResync
)

// View registry sentinels, for errors.Is on CREATE VIEW / DROP VIEW.
var (
	// ErrDupView reports a CREATE VIEW reusing a live view's name.
	ErrDupView = core.ErrDupView
	// ErrNoView reports a DROP VIEW naming no live view.
	ErrNoView = core.ErrNoView
)

// SimTime reports the simulated kernel time a database's controller has
// accumulated — the response-time figure the MBDS experiments sweep.
func SimTime(db *Database) time.Duration { return db.Ctrl.SimTime() }

// SaveDatabase writes a database — schema and contents — to w. The image is
// self-contained (the schema is embedded as regenerated DDL text) and can be
// restored into any System with any backend count.
func SaveDatabase(db *Database, w io.Writer) error { return db.Save(w) }

// RestoreDatabase reads an image written by SaveDatabase and registers the
// database under its original name.
func RestoreDatabase(sys *System, r io.Reader) (*Database, error) { return sys.Restore(r) }
