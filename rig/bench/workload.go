// Package bench is the MLDS measurement rig: four workloads driven through
// the real serving path (client → TCP loopback → server → core sessions →
// KMS → kc/txn → mbds → kdb → pager), each reply checked against an oracle
// the generator maintains, with end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"mlds/internal/core"
)

// Users is the number of simulated users. Each owns a disjoint slice of the
// key space (key mod Users), so its view of the rows it writes is sequential
// and the oracle can hold an exact expected value per key. The closed loop
// spreads the users over C client goroutines; the open loop runs each user
// on its own schedule. All of them share C TCP connections.
const Users = 32

// Language names as the rig spells them; they are what System.Open accepts.
const (
	langSQL    = "sql"
	langDaplex = "daplex"
	langDML    = "dml"
	langDLI    = "dli"
	langABDL   = "abdl"
)

// stmt is one statement of an operation and the check its reply must pass.
type stmt struct {
	lang  string
	text  string
	check func(rendered string) error // nil: the statement only has to succeed
}

// op is one operation: the unit throughput and latency are counted in. Its
// statements run in order on one user's sessions.
type op struct {
	kind  string // e.g. "point", "update", "transfer": names the per-kind rows of the layer budget
	stmts []stmt
	// txn marks an explicit transaction (first statement BEGIN, last
	// COMMIT): a deadlock or lock-timeout abort rolls it back and the whole
	// operation is retried, counting once.
	txn bool
	// applied runs after the operation succeeded, to move the oracle's model
	// to the acknowledged state.
	applied func()
}

// generator produces one user's operation stream. The stream is a pure
// function of (seed, user): it does not depend on timing or on replies.
type generator interface {
	next() *op
}

// sessionSpec names one session every user opens.
type sessionSpec struct {
	lang string
	db   string
}

// workload is one named traffic mix with its data set.
type workload interface {
	// build creates the system and loads the data set; its wall time is
	// setup_s. dir is a fresh scratch directory for page and journal files.
	build(dir string, tracing bool) (*core.System, error)
	// sessions lists the sessions each user opens.
	sessions() []sessionSpec
	// newUser returns user u's generator. Every generator of one run shares
	// the seed; u selects the key partition.
	newUser(u int, rng *rand.Rand) generator
	// rate is the open-loop arrival rate in operations per second: 40 % of
	// the closed-loop throughput measured on the parent commit when the
	// benchmark was defined, fixed since.
	rate() float64
}

// hooked is implemented by workloads that run background work beside the
// traffic (checkpoints, a change watch) and extra phases after it.
type hooked interface {
	// start runs once the bed is serving, before warm-up; stop ends the
	// background work and waits for it.
	start(b *bed) (stop func(), err error)
	// finish runs after the timed phases, the system still open. It returns
	// extra per-layer metrics and the number of oracle failures it found.
	finish(b *bed, m map[string]float64) (failed int, err error)
	// marks returns the instants at which the background work completed a
	// cycle, with the process's allocation counters read at each. Closed-loop
	// rates are taken between the first and the last mark inside the phase,
	// so that every run measures whole cycles and not a varying fraction of
	// one.
	marks() []mark
	// whileIdle runs fn while no background cycle is in progress.
	whileIdle(fn func())
}

// tracedWorkload is implemented by workloads that do more in the traced run.
type tracedWorkload interface {
	// traced is called on each bed of a traced run before its hooks start.
	traced()
	// traceMetrics adds the workload's own per-layer metrics after the
	// traced closed and open loops.
	traceMetrics(m map[string]float64, closed *phase)
}

// phased is implemented by workloads whose traffic differs between phases.
type phased interface {
	enter(phase string)
}

// Phase names passed to phased workloads.
const (
	phaseWarmup = "warmup"
	phaseClosed = "closed"
	phaseOpen   = "open"
	phasePeel   = "peel"
)

// enterPhase tells a phased workload which phase begins.
func enterPhase(w workload, phase string) {
	if p, ok := w.(phased); ok {
		p.enter(phase)
	}
}

// mark is the end of one background cycle.
type mark struct {
	at         time.Time
	mallocs    uint64
	totalAlloc uint64
}

// sized is implemented by workloads whose data size can be scaled down for
// the toy-size tests.
type sized interface {
	scale(rows int)
}

// userRNG derives user u's private generator from the run seed.
func userRNG(seed int64, u int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(u)*7919 + 1))
}

// newWorkload returns a fresh instance of the named workload.
func newWorkload(name string) (workload, error) {
	switch name {
	case "sql_point_mem":
		return newSQLPointMem(), nil
	case "sql_point_paged_cold":
		return newSQLPointCold(), nil
	case "txn_durable_paged":
		return newTxnDurable(), nil
	case "five_lang_mix":
		return newFiveLang(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, WorkloadNames())
}
