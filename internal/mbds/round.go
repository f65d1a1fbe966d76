package mbds

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
)

// Exec executes one ABDL request across the backends and returns the merged
// result. The result's Cost is the summed backend work; use ExecTimed for
// the parallel response-time model.
func (s *System) Exec(req *abdl.Request) (*kdb.Result, error) {
	res, _, err := s.ExecTimed(req)
	return res, err
}

// ExecTimed executes one request and additionally returns the simulated
// response time under the parallel-backend model: bus latency out and back
// plus the slowest backend's disk time.
func (s *System) ExecTimed(req *abdl.Request) (*kdb.Result, time.Duration, error) {
	return s.ExecTimedCtx(context.Background(), req)
}

// ExecTimedCtx is ExecTimed carrying a request context: a round of one. When
// the context holds an obs trace, each backend call becomes a
// "backend.exec" child span; metrics (if configured) are recorded either way.
func (s *System) ExecTimedCtx(ctx context.Context, req *abdl.Request) (*kdb.Result, time.Duration, error) {
	results, simt, err := s.exec(ctx, []*abdl.Request{req})
	if err != nil {
		return nil, 0, err
	}
	return results[0], simt, nil
}

// ExecBatch executes a slice of ABDL requests as one kernel round: the
// controller plans every request, sends each backend its whole share as a
// single bus message (a single wire message for remote backends), and
// merges the partial results positionally. It returns one result per request
// and the simulated response time of the round — bus latency out and back
// plus the slowest backend's total disk time, since the backends work their
// shares in parallel. A RETRIEVE-COMMON splits the round at its position.
func (s *System) ExecBatch(reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	return s.ExecBatchCtx(context.Background(), reqs)
}

// ExecBatchCtx is ExecBatch carrying a request context. When the context
// holds an obs trace each backend's share becomes one "backend.exec" span —
// not one span per request.
func (s *System) ExecBatchCtx(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	s.metrics.batches.Inc()
	return s.exec(ctx, reqs)
}

// exec runs one round under the system's lifecycle: the in-flight count,
// the write fence (shared in normal operation, taken exclusively by a
// migration's final catch-up round so the flip sees no in-flight writes),
// the migration catch-up log and the timing metrics.
func (s *System) exec(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	if err := s.beginOp(); err != nil {
		return nil, 0, err
	}
	defer s.opWG.Done()
	s.fence.RLock()
	defer s.fence.RUnlock()
	s.metrics.requests.Add(uint64(len(reqs)))
	start := time.Now()
	results, simt, err := s.execRounds(ctx, reqs)
	if err != nil {
		return nil, 0, err
	}
	for _, req := range reqs {
		s.logCatchup(req)
	}
	s.metrics.simSec.Observe(simt.Seconds())
	s.metrics.wallSec.Observe(time.Since(start).Seconds())
	return results, simt, nil
}

// execRounds validates every request up front — a bad request rejects the
// whole batch before any mutation — then executes them in order: each run of
// requests between RETRIEVE-COMMONs is one bus round, and a RETRIEVE-COMMON
// runs at its position, so it sees the requests before it and the requests
// after it see its phases.
func (s *System) execRounds(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	split := false
	for i, req := range reqs {
		err := req.Validate()
		if err == nil && req.Kind == abdl.Insert {
			err = s.dir.ValidateRecord(req.Record)
		}
		if err != nil {
			if len(reqs) > 1 {
				err = fmt.Errorf("mbds: batch request %d: %w", i, err)
			}
			return nil, 0, err
		}
		split = split || req.Kind == abdl.RetrieveCommon
	}
	if !split {
		return s.round(ctx, reqs)
	}
	results := make([]*kdb.Result, len(reqs))
	var total time.Duration
	for i := 0; i < len(reqs); {
		n := 1
		var t time.Duration
		var err error
		if reqs[i].Kind == abdl.RetrieveCommon {
			results[i], t, err = s.retrieveCommon(ctx, reqs[i])
		} else {
			for i+n < len(reqs) && reqs[i+n].Kind != abdl.RetrieveCommon {
				n++
			}
			var res []*kdb.Result
			res, t, err = s.round(ctx, reqs[i:i+n])
			copy(results[i:], res)
		}
		if err != nil {
			return nil, 0, err
		}
		total += t
		i += n
	}
	return results, total, nil
}

// share is one backend's part of a round: the requests it executes, in round
// order, and where their results land.
type share struct {
	b    *backend
	pos  []int // round position of each request; nil when the share is the whole round
	reqs []*abdl.Request
	out  []*kdb.Result // first-attempt result slots; the successful attempt's results after the call
	sim  time.Duration // summed simulated disk time of the share
	err  error
}

// round executes requests free of RETRIEVE-COMMON as one bus round. Inserts
// go to the holder set of a controller-assigned key (every copy shares it,
// and the key names its holders); every other kind broadcasts. Each backend
// gets its share as a single message under one admit/retry/breaker pass and
// works it in order, so a later request observes earlier mutations on the
// same backend; the partial results merge positionally.
func (s *System) round(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	view := s.viewSnap()
	sent := make([]*abdl.Request, len(reqs))
	var homes []int // per insert: the primary's view position; nil without inserts
	inserts := 0
	for i, req := range reqs {
		if req.Kind != abdl.Insert {
			sent[i] = withCacheKey(req)
			continue
		}
		if req.ForceID != 0 {
			// A caller-pinned key (journal replay, undo restore, migration):
			// advance the shared allocator past it so later inserts can never
			// collide with the replayed key space.
			s.seedNextID(uint64(req.ForceID))
		} else {
			cp := *req
			cp.ForceID = abdm.RecordID(s.nextID.Add(1))
			req = &cp
		}
		if homes == nil {
			homes = make([]int, len(reqs))
		}
		sent[i], homes[i] = req, home(req.ForceID, len(view))
		inserts++
	}

	// Plan the shares. A backend serves every broadcast and each insert it
	// holds a copy of (isHolder); a share that is the whole round takes the
	// round's slice as is.
	serves := func(p, i int) bool {
		return sent[i].Kind != abdl.Insert || s.isHolder(p, homes[i], len(view))
	}
	// A round of inserts alone reaches at most one holder window each.
	most := len(view)
	if inserts == len(sent) {
		most = min(most, inserts*s.holders(len(view)))
	}
	shares := make([]share, 0, most)
	slots := 0
	for p, b := range view {
		sh := share{b: b, reqs: sent}
		if homes != nil {
			n := 0
			for i := range sent {
				if serves(p, i) {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if n < len(sent) {
				sh.pos, sh.reqs = make([]int, 0, n), make([]*abdl.Request, 0, n)
				for i := range sent {
					if serves(p, i) {
						sh.pos, sh.reqs = append(sh.pos, i), append(sh.reqs, sent[i])
					}
				}
			}
		}
		shares = append(shares, sh)
		slots += len(sh.reqs)
	}
	// One slot array per round: the results, then each share's first-attempt
	// results.
	out := make([]*kdb.Result, len(reqs)+slots)
	results, out := out[:len(reqs):len(reqs)], out[len(reqs):]
	for k := range shares {
		n := len(shares[k].reqs)
		shares[k].out, out = out[:n:n], out[n:]
	}

	// Fan out in parallel; the last share runs on this goroutine.
	var wg sync.WaitGroup
	for k := range shares {
		sh := &shares[k]
		if k == len(shares)-1 {
			s.callShare(ctx, sh)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.callShare(ctx, sh)
		}()
	}
	wg.Wait()

	// Merge positionally. A backend's simulated time is its share's summed
	// disk time (it works the share sequentially on its own disk); the
	// round's time is the slowest backend's, since the backends overlap.
	var worst time.Duration
	var firstErr error
	failed := 0
	for _, sh := range shares {
		if sh.err != nil {
			failed++
			if firstErr == nil {
				firstErr = sh.err
			}
			continue
		}
		worst = max(worst, sh.sim)
		for j, res := range sh.out {
			i := j
			if sh.pos != nil {
				i = sh.pos[j]
			}
			switch {
			case sent[i].Kind != abdl.Insert:
				if results[i] == nil {
					// Placement spreads a file over every backend, so a
					// broadcast's records arrive from several shares:
					// size the merged list once.
					results[i] = &kdb.Result{Op: sent[i].Kind}
					if n := recordsAt(shares, i); n > 0 {
						results[i].Records = make([]kdb.StoredRecord, 0, n)
					}
				}
				results[i].Merge(res)
			case results[i] == nil:
				results[i] = res
			default:
				results[i].Cost.Add(res.Cost)
			}
		}
	}
	for i, req := range sent {
		if req.Kind == abdl.Insert {
			if results[i] == nil {
				// No copy was written: the insert failed outright.
				return nil, 0, firstErr
			}
			// One logical record, however many copies were written. Fewer
			// copies than requested (a holder was down) is degraded but
			// successful; the record is durable on the copies that took it.
			results[i].Count = 1
			continue
		}
		// A failed backend fails every broadcast at once; with replication
		// up to Replicas of them are tolerated, since the surviving copies
		// still cover the whole database.
		if failed > s.cfg.Replicas {
			return nil, 0, firstErr
		}
		if results[i] == nil {
			results[i] = &kdb.Result{Op: req.Kind}
		}
		// Replica copies — and, mid-migration, copies already imported by
		// their new holder while the source still has them — answer under
		// one key; keep one.
		if s.cfg.Replicas > 0 || s.migOn.Load() {
			before := len(results[i].Records)
			results[i].DedupByID()
			if removed := before - len(results[i].Records); removed > 0 {
				s.metrics.dedup.Add(uint64(removed))
			}
		}
		results[i].RecomputeAggregates(req.Target)
	}
	return results, 2*s.cfg.MsgLatency + worst, nil
}

// recordsAt counts the records the successful shares returned for round
// position i.
func recordsAt(shares []share, i int) int {
	n := 0
	for _, sh := range shares {
		if sh.err != nil {
			continue
		}
		j := i
		if sh.pos != nil {
			var ok bool
			if j, ok = slices.BinarySearch(sh.pos, i); !ok {
				continue
			}
		}
		n += len(sh.out[j].Records)
	}
	return n
}

// withCacheKey returns a RETRIEVE carrying its canonical text as
// Request.CacheKey, so the backends' result caches look it up under one
// rendering made here instead of one each. The key goes on a copy: the
// caller's request may be shared (a cached plan), the copy is the
// controller's until the fan-out shares it read-only. Other kinds pass
// through.
func withCacheKey(req *abdl.Request) *abdl.Request {
	if req.Kind != abdl.Retrieve {
		return req
	}
	cp := *req
	cp.CacheKey = cp.String()
	return &cp
}

// retrieveCommon runs the semi-join in two phases, one round each: the
// second query's common-attribute values are gathered from every backend,
// then the first query is broadcast and filtered at the controller. Records
// matching the two queries may live on different backends, so neither phase
// can be pushed down whole.
func (s *System) retrieveCommon(ctx context.Context, req *abdl.Request) (*kdb.Result, time.Duration, error) {
	r1, t1, err := s.round(ctx, []*abdl.Request{{
		Kind:      abdl.Retrieve,
		Query:     req.Query2,
		Target:    []abdl.TargetItem{{Attr: req.Common}},
		SnapEpoch: req.SnapEpoch,
	}})
	if err != nil {
		return nil, 0, err
	}
	values := kdb.CommonValues(r1[0].Records, req.Common)

	r2, t2, err := s.round(ctx, []*abdl.Request{{
		Kind:      abdl.Retrieve,
		Query:     req.Query,
		Target:    []abdl.TargetItem{{Attr: abdl.AllAttrs}},
		SnapEpoch: req.SnapEpoch,
	}})
	if err != nil {
		return nil, 0, err
	}
	kept := kdb.FilterByCommon(r2[0].Records, req.Common, values)

	out := &kdb.Result{Op: abdl.RetrieveCommon, Cost: r1[0].Cost}
	out.Cost.Add(r2[0].Cost)
	all := len(req.Target) == 0
	for _, t := range req.Target {
		if t.Attr == abdl.AllAttrs || t.Agg != abdl.AggNone {
			all = true
		}
	}
	for _, sr := range kept {
		rec := sr.Rec
		if !all {
			proj := &abdm.Record{}
			for _, t := range req.Target {
				if v, ok := rec.Get(t.Attr); ok {
					proj.Set(t.Attr, v)
				}
			}
			rec = proj
		}
		out.Records = append(out.Records, kdb.StoredRecord{ID: sr.ID, Rec: rec})
	}
	out.RecomputeAggregates(req.Target)
	return out, t1 + t2, nil
}

// callShare runs one backend's share under a "backend.exec" span charged
// with the share's simulated disk time. With no trace in ctx the span is nil
// and every span call no-ops.
func (s *System) callShare(ctx context.Context, sh *share) {
	_, span := obs.StartSpan(ctx, "backend.exec")
	if span != nil {
		span.SetAttr("backend", strconv.Itoa(sh.b.id))
		span.SetAttr("requests", strconv.Itoa(len(sh.reqs)))
	}
	sh.out, sh.err = s.callBackend(sh.b, sh.reqs, sh.out)
	if sh.err != nil {
		span.SetAttr("error", sh.err.Error())
	} else {
		for _, res := range sh.out {
			sh.sim += s.cfg.Disk.Time(res.Cost)
		}
		span.AddSim(sh.sim)
	}
	span.End()
}

// callBackend executes requests on one backend under the fault policy: the
// circuit breaker gates admission, each attempt is bounded by
// RequestTimeout, and transient failures are retried with exponential
// backoff. Every request the controller sends is safe to resend, even after
// an attempt that may have executed: retrieves read, DELETE and UPDATE
// qualify by query and assign absolute values, and every INSERT carries its
// controller-assigned key, so a resend overwrites its own copy. The first
// attempt writes its results into out; an abandoned attempt may still write
// there late, so every retry gets fresh result memory.
func (s *System) callBackend(b *backend, reqs []*abdl.Request, out []*kdb.Result) ([]*kdb.Result, error) {
	for attempt := 0; ; attempt++ {
		probing, ok := b.admit(s.cfg)
		if !ok {
			return nil, &BackendDownError{Backend: b.id, Last: b.snapshotHealth().LastError}
		}
		if attempt > 0 {
			out = make([]*kdb.Result, len(reqs))
			b.noteRetry()
			b.metrics.retries.Inc()
			backoff := s.cfg.RetryBackoff << (attempt - 1)
			if backoff > 0 {
				select {
				case <-time.After(backoff):
				case <-s.closedCh:
					return nil, ErrClosed
				}
			}
		}
		b.metrics.requests.Inc()
		err := s.callOnce(b, reqs, out)
		if err == nil {
			b.noteSuccess()
			return out, nil
		}
		b.metrics.failures.Inc()
		b.noteFailure(err, s.cfg)
		// Retry only recoverable failures.
		if !transient(err) || attempt >= s.cfg.MaxRetries {
			return nil, err
		}
		// A failed probe leaves the breaker open; stop instead of burning
		// the remaining retries against a known-down backend.
		if probing && !b.snapshotHealth().Up {
			return nil, err
		}
	}
}

// callOnce makes one attempt at a share. Without a RequestTimeout it calls
// the backend on the caller's goroutine. With one, the attempt gets a
// goroutine of its own, since only then can a blocked call be abandoned at
// the deadline; an abandoned attempt runs on, and the backend's next call
// waits for it within its own deadline, so a late write never lands after
// the retry that replaced it.
func (s *System) callOnce(b *backend, reqs []*abdl.Request, out []*kdb.Result) error {
	b.metrics.queue.Inc()
	defer b.metrics.queue.Dec()
	if s.cfg.RequestTimeout <= 0 {
		return b.bus.ExecBatch(reqs, out)
	}
	deadline := time.NewTimer(s.cfg.RequestTimeout)
	defer deadline.Stop()
	if late := b.lateAttempts(); late != nil {
		select {
		case <-late:
		case <-deadline.C:
			return &DeadlineError{Backend: b.id, Timeout: s.cfg.RequestTimeout}
		}
	}
	var err error
	done := make(chan struct{})
	go func() {
		err = b.bus.ExecBatch(reqs, out)
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-deadline.C:
		b.abandon(done)
		return &DeadlineError{Backend: b.id, Timeout: s.cfg.RequestTimeout}
	}
}

// lateAttempts returns a channel closed once every abandoned attempt on the
// backend has finished, or nil when none is running.
func (b *backend) lateAttempts() <-chan struct{} {
	b.lateMu.Lock()
	defer b.lateMu.Unlock()
	if b.late != nil {
		select {
		case <-b.late:
			b.late = nil
		default:
		}
	}
	return b.late
}

// abandon registers an attempt that missed its deadline; done closes when it
// finishes. Attempts abandoned together (concurrent shares that all missed)
// are waited for together.
func (b *backend) abandon(done chan struct{}) {
	b.lateMu.Lock()
	defer b.lateMu.Unlock()
	prev := b.late
	if prev == nil {
		b.late = done
		return
	}
	both := make(chan struct{})
	go func() {
		<-prev
		<-done
		close(both)
	}()
	b.late = both
}
