package mbds

import (
	"errors"
	"fmt"
	"time"
)

// BackendHealth is one backend's state as reported by System.Health.
type BackendHealth struct {
	ID          int
	Up          bool      // false while the circuit breaker is open
	Consecutive int       // consecutive transient failures
	Attempts    uint64    // request attempts (including retries)
	Failures    uint64    // failed attempts
	Retries     uint64    // attempts beyond the first per request
	LastError   string    // most recent failure, "" if none
	DownSince   time.Time // when the breaker opened (zero if up)
}

// String renders one health line.
func (h BackendHealth) String() string {
	state := "up"
	if !h.Up {
		state = "DOWN since " + h.DownSince.Format("15:04:05.000")
	}
	s := fmt.Sprintf("backend %d: %s, %d attempts, %d failures, %d retries",
		h.ID, state, h.Attempts, h.Failures, h.Retries)
	if h.LastError != "" {
		s += ", last error: " + h.LastError
	}
	return s
}

// health is a backend's failure tracker: a consecutive-failure circuit
// breaker with periodic half-open probes.
type health struct {
	up        bool
	consec    int
	attempts  uint64
	failures  uint64
	retries   uint64
	lastErr   string
	downSince time.Time
	lastProbe time.Time
}

// admit decides whether a request may be sent to the backend. A down
// backend admits one probe per ProbePeriod (half-open breaker); otherwise
// the request is rejected without touching the backend.
func (b *backend) admit(cfg Config) (probing, ok bool) {
	b.hmu.Lock()
	defer b.hmu.Unlock()
	if b.health.up {
		return false, true
	}
	now := time.Now()
	if cfg.ProbePeriod <= 0 || now.Sub(b.health.lastProbe) >= cfg.ProbePeriod {
		b.health.lastProbe = now
		return true, true
	}
	return false, false
}

// noteSuccess records a successful attempt, closing the breaker.
func (b *backend) noteSuccess() {
	b.hmu.Lock()
	defer b.hmu.Unlock()
	b.health.attempts++
	b.health.consec = 0
	if !b.health.up {
		b.health.up = true
		b.health.downSince = time.Time{}
	}
}

// noteFailure records a failed attempt. Only transient failures count
// toward the breaker: a validation error is the request's fault, not the
// backend's.
func (b *backend) noteFailure(err error, cfg Config) {
	b.hmu.Lock()
	defer b.hmu.Unlock()
	b.health.attempts++
	b.health.failures++
	b.health.lastErr = err.Error()
	if !transient(err) {
		return
	}
	b.health.consec++
	if b.health.up && cfg.BreakerThreshold > 0 && b.health.consec >= cfg.BreakerThreshold {
		b.health.up = false
		b.health.downSince = time.Now()
		b.health.lastProbe = time.Now()
		b.metrics.trips.Inc()
	}
}

// noteRetry counts one retry attempt.
func (b *backend) noteRetry() {
	b.hmu.Lock()
	b.health.retries++
	b.hmu.Unlock()
}

// snapshotHealth copies the tracker state.
func (b *backend) snapshotHealth() BackendHealth {
	b.hmu.Lock()
	defer b.hmu.Unlock()
	return BackendHealth{
		ID:          b.id,
		Up:          b.health.up,
		Consecutive: b.health.consec,
		Attempts:    b.health.attempts,
		Failures:    b.health.failures,
		Retries:     b.health.retries,
		LastError:   b.health.lastErr,
		DownSince:   b.health.downSince,
	}
}

// Health reports every backend's current state in view order: up/down,
// failure and retry counts, and the most recent error. Each entry's ID is
// the backend's stable id, which can diverge from its view position after
// membership changes.
func (s *System) Health() []BackendHealth {
	view := s.viewSnap()
	out := make([]BackendHealth, len(view))
	for i, b := range view {
		out[i] = b.snapshotHealth()
	}
	return out
}

// DeadlineError reports a backend that did not answer within
// Config.RequestTimeout. The request may still execute after the deadline
// (the backend is slow, not provably dead); the retry is safe because every
// request the controller sends is idempotent.
type DeadlineError struct {
	Backend int
	Timeout time.Duration
}

// Error describes the missed deadline.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("mbds: backend %d missed the %v request deadline", e.Backend, e.Timeout)
}

// Transient marks the failure as retryable.
func (e *DeadlineError) Transient() bool { return true }

// BackendDownError reports a request skipped because the backend's circuit
// breaker is open.
type BackendDownError struct {
	Backend int
	Last    string // the failure that opened the breaker
}

// Error describes the open breaker.
func (e *BackendDownError) Error() string {
	s := fmt.Sprintf("mbds: backend %d is down (circuit open)", e.Backend)
	if e.Last != "" {
		s += ": " + e.Last
	}
	return s
}

// Transient marks the failure as retryable (the backend may recover).
func (e *BackendDownError) Transient() bool { return true }

// transient reports whether err is a recoverable backend failure — one
// worth retrying and one that should count toward the circuit breaker.
// Errors opt in by implementing Transient() bool (injected faults, missed
// deadlines, unreachable remote backends).
func transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
