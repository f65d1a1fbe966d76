package mbds

import (
	"strconv"

	"mlds/internal/obs"
)

// sysMetrics is the controller-level handle set, resolved once at system
// construction. Every handle is nil when no registry is configured, and the
// obs types no-op on nil, so the hot path never tests whether metrics are on.
type sysMetrics struct {
	requests *obs.Counter   // kernel requests by database
	batches  *obs.Counter   // batched rounds executed by the controller
	dedup    *obs.Counter   // records removed by replica dedup
	simSec   *obs.Histogram // simulated response time per request
	wallSec  *obs.Histogram // wall-clock time per request

	// Elastic membership and live migration.
	membershipEpoch *obs.Gauge   // current placement-view epoch
	migKeys         *obs.Counter // records copied by migrations
	migBytes        *obs.Counter // approximate bytes copied by migrations
	migCatchup      *obs.Counter // catch-up log entries replayed at flips
	promotions      *obs.Counter // backends removed after loss (failovers)
}

// backendMetrics is one backend's handle set.
type backendMetrics struct {
	requests *obs.Counter // attempts sent to this backend (retries included)
	failures *obs.Counter // failed attempts
	retries  *obs.Counter // attempts beyond the first per request
	trips    *obs.Counter // circuit-breaker openings
	queue    *obs.Gauge   // share attempts currently in flight
}

// initMetrics resolves the system's metric handles from Config.Metrics,
// labelling each series with the database name. With a nil registry every
// handle stays nil (no-op).
func (s *System) initMetrics() {
	reg := s.cfg.Metrics
	db := obs.L("db", s.cfg.DBName)
	s.metrics = sysMetrics{
		requests: reg.Counter("mlds_kernel_requests_total",
			"ABDL requests executed by the kernel controller", db),
		batches: reg.Counter("mlds_kernel_batches_total",
			"batched kernel rounds executed by the controller", db),
		dedup: reg.Counter("mlds_replica_dedup_hits_total",
			"replica copies removed by controller-side dedup", db),
		simSec: reg.Histogram("mlds_kernel_sim_seconds",
			"simulated kernel response time per request", nil, db),
		wallSec: reg.Histogram("mlds_kernel_wall_seconds",
			"wall-clock kernel time per request", nil, db),
		membershipEpoch: reg.Gauge("mlds_membership_epoch",
			"current backend placement-view epoch", db),
		migKeys: reg.Counter("mlds_migration_keys_total",
			"records copied by live partition migrations", db),
		migBytes: reg.Counter("mlds_migration_bytes_total",
			"approximate bytes copied by live partition migrations", db),
		migCatchup: reg.Counter("mlds_migration_catchup_entries_total",
			"catch-up log entries captured during live migrations", db),
		promotions: reg.Counter("mlds_promotions_total",
			"backends removed after loss, their keys re-homed on survivors", db),
	}
}

// initBackendMetrics resolves one backend's metric handles, labelled with
// its stable id. Called at construction and again for every added backend.
func (s *System) initBackendMetrics(b *backend) {
	reg := s.cfg.Metrics
	db := obs.L("db", s.cfg.DBName)
	be := obs.L("backend", strconv.Itoa(b.id))
	b.metrics = backendMetrics{
		requests: reg.Counter("mlds_backend_requests_total",
			"request attempts sent to each backend", db, be),
		failures: reg.Counter("mlds_backend_failures_total",
			"failed request attempts per backend", db, be),
		retries: reg.Counter("mlds_backend_retries_total",
			"retry attempts per backend", db, be),
		trips: reg.Counter("mlds_backend_breaker_trips_total",
			"circuit-breaker openings per backend", db, be),
		queue: reg.Gauge("mlds_backend_queue_depth",
			"share attempts in flight on each backend", db, be),
	}
	// Paged-backend memory accounting: how many record bodies the demand-paged
	// store holds in RAM, and how many pages the buffer pool keeps resident.
	// Read at exposition time — the store owns both figures. Remote backends
	// (store == nil) expose theirs from their own process.
	if st := b.store; st != nil && st.Backed() {
		reg.GaugeFunc("mlds_backing_resident_records",
			"record bodies materialised in RAM by each paged backend", func() float64 {
				return float64(st.ResidentRecords())
			}, db, be)
		reg.GaugeFunc("mlds_backing_pool_pages",
			"buffer-pool pages resident in each paged backend", func() float64 {
				stats, _, _ := st.BackingStats()
				return float64(stats.Resident)
			}, db, be)
	}
}
