package mbdsnet

import (
	"net"
	"net/http"

	"mlds/internal/obs"
)

// Instrument wires the backend server into a metrics registry: wire-level
// execbatch counters plus gauges over the served store's record count and
// lifetime kernel cost, all carrying the given labels. Call before traffic
// flows; without it the server runs unmetered.
func (s *BackendServer) Instrument(reg *obs.Registry, labels ...obs.Label) {
	s.mBatch = reg.Counter("mlds_server_batch_total",
		"execbatch wire messages served", labels...)
	s.mBatchReqs = reg.Counter("mlds_server_batch_requests_total",
		"ABDL requests carried inside execbatch wire messages", labels...)
	s.mErrors = reg.Counter("mlds_server_exec_errors_total",
		"wire requests that returned an error", labels...)
	store := s.store
	reg.GaugeFunc("mlds_store_cache_hits",
		"retrieve-result cache hits in this partition",
		func() float64 { return float64(store.Stats().CacheHits) }, labels...)
	reg.GaugeFunc("mlds_store_cache_misses",
		"retrieve-result cache misses in this partition",
		func() float64 { return float64(store.Stats().CacheMisses) }, labels...)
	reg.GaugeFunc("mlds_store_records",
		"records held by this partition",
		func() float64 { return float64(store.Len()) }, labels...)
	reg.GaugeFunc("mlds_store_blocks_read",
		"cumulative disk-model blocks read by this partition",
		func() float64 { return float64(store.Stats().BlocksRead) }, labels...)
	reg.GaugeFunc("mlds_store_blocks_written",
		"cumulative disk-model blocks written by this partition",
		func() float64 { return float64(store.Stats().BlocksWrit) }, labels...)
	reg.GaugeFunc("mlds_store_records_examined",
		"cumulative records examined by this partition",
		func() float64 { return float64(store.Stats().RecordsExam) }, labels...)
}

// OpsServer is an HTTP endpoint serving /metrics (Prometheus text format)
// and /healthz next to a backend's data port.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeOps starts an ops endpoint on the TCP address (":0" for ephemeral).
// healthy gates /healthz; nil means always healthy.
func ServeOps(addr string, reg *obs.Registry, healthy func() bool) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: obs.Handler(reg, healthy)}
	go func() { _ = srv.Serve(ln) }()
	return &OpsServer{ln: ln, srv: srv}, nil
}

// Addr reports the ops endpoint's listen address.
func (o *OpsServer) Addr() string { return o.ln.Addr().String() }

// Close stops the ops endpoint.
func (o *OpsServer) Close() error { return o.srv.Close() }
