package mbds

import (
	"fmt"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/kdb"
)

// FaultMode selects how an injected fault manifests.
type FaultMode int

// Fault modes.
const (
	// FaultErr fails the request immediately with an InjectedError — a
	// backend that answers, but with a failure.
	FaultErr FaultMode = iota
	// FaultHang blocks the request until the plan is cleared or the system
	// closes — a wedged backend. Use together with Config.RequestTimeout;
	// without a deadline the controller waits as long as the hang lasts.
	FaultHang
	// FaultDelay sleeps for the plan's Delay, then executes normally — a
	// slow disk or congested bus segment.
	FaultDelay
	// FaultDrop fails the request with an InjectedError that models a lost
	// bus message: the request never reached the backend, so retrying it is
	// always safe.
	FaultDrop
)

// String names the mode.
func (m FaultMode) String() string {
	switch m {
	case FaultErr:
		return "error"
	case FaultHang:
		return "hang"
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// FaultPlan configures which requests a FaultyExecutor sabotages. Selection
// is deterministic: either every Nth request (EveryN) or a pseudo-random
// fraction drawn from a seeded generator (Fraction/Seed), so failure tests
// reproduce exactly without real network chaos.
type FaultPlan struct {
	Mode     FaultMode
	EveryN   int           // inject on every Nth request (1 = every); takes precedence
	Fraction float64       // else inject on ~this fraction of requests
	Seed     uint64        // generator seed for Fraction selection (0 = 1)
	Delay    time.Duration // FaultDelay: added latency before executing
}

// InjectedError is the failure a FaultyExecutor produces. It is transient:
// the controller's retry policy treats it like any other recoverable backend
// failure, which is the point of injecting it.
type InjectedError struct {
	Mode FaultMode
}

// Error describes the injected fault.
func (e *InjectedError) Error() string {
	return "mbds: injected fault (" + e.Mode.String() + ")"
}

// Transient marks the failure as retryable.
func (e *InjectedError) Transient() bool { return true }

// FaultyExecutor wraps an Executor with configurable fault injection. It
// applies its plan to each request of a share in turn, so a share fails at
// its first faulted request; the migration verbs pass straight through. A
// nil plan (the initial state) passes every request through untouched;
// SetPlan swaps plans atomically mid-workload, releasing any requests a
// previous hang plan captured.
type FaultyExecutor struct {
	Executor

	mu       sync.Mutex
	plan     *FaultPlan
	n        uint64 // requests seen under the current plan
	rng      uint64 // xorshift64* state for Fraction selection
	injected uint64
	release  chan struct{}   // closed to free hanging requests
	closed   <-chan struct{} // the owning system's Close; frees hangs for good
}

// NewFaultyExecutor wraps inner with a (initially healthy) fault injector.
func NewFaultyExecutor(inner Executor) *FaultyExecutor {
	return &FaultyExecutor{Executor: inner, release: make(chan struct{})}
}

// SetPlan installs a fault plan (nil restores healthy operation). Requests
// hanging under the previous plan are released with an InjectedError.
func (f *FaultyExecutor) SetPlan(p *FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.release)
	f.release = make(chan struct{})
	f.plan = p
	f.n = 0
	f.rng = 1
	if p != nil && p.Seed != 0 {
		f.rng = p.Seed
	}
}

// Fail is the common toggle: true forces every request to fail, false
// restores healthy operation.
func (f *FaultyExecutor) Fail(down bool) {
	if down {
		f.SetPlan(&FaultPlan{Mode: FaultErr, EveryN: 1})
	} else {
		f.SetPlan(nil)
	}
}

// Injected reports how many faults have been injected since creation.
func (f *FaultyExecutor) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// decide advances the plan state by one request and reports whether (and
// how) to inject.
func (f *FaultyExecutor) decide() (mode FaultMode, delay time.Duration, release chan struct{}, hit bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan == nil {
		return 0, 0, nil, false
	}
	f.n++
	switch {
	case f.plan.EveryN > 0:
		hit = f.n%uint64(f.plan.EveryN) == 0
	case f.plan.Fraction > 0:
		// xorshift64*: deterministic, seedable, stdlib-free.
		f.rng ^= f.rng << 13
		f.rng ^= f.rng >> 7
		f.rng ^= f.rng << 17
		hit = float64(f.rng>>11)/float64(uint64(1)<<53) < f.plan.Fraction
	}
	if hit {
		f.injected++
	}
	return f.plan.Mode, f.plan.Delay, f.release, hit
}

// ExecBatch applies the fault plan to each request in turn, then (for delay
// faults or healthy requests) hands that request to the wrapped executor.
func (f *FaultyExecutor) ExecBatch(reqs []*abdl.Request, out []*kdb.Result) error {
	for i := range reqs {
		mode, delay, release, hit := f.decide()
		if hit {
			switch mode {
			case FaultErr, FaultDrop:
				return &InjectedError{Mode: mode}
			case FaultHang:
				select {
				case <-release:
				case <-f.closed:
				}
				return &InjectedError{Mode: mode}
			case FaultDelay:
				time.Sleep(delay)
			}
		}
		if err := f.Executor.ExecBatch(reqs[i:i+1], out[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}
