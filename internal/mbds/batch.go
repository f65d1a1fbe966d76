package mbds

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
)

// batchSlot pairs a request with its position in the caller's batch, so a
// backend's partial results can be folded back into the right output slots.
type batchSlot struct {
	pos int
	req *abdl.Request
}

// ExecBatch executes a slice of ABDL requests in one per-backend round: the
// controller plans every request, sends each backend its whole sub-batch as
// a single bus message (a single wire message for remote backends), and
// merges the partial results positionally. It returns one result per request
// and the simulated response time of the round — bus latency out and back
// plus the slowest backend's total disk time, since the backends work their
// sub-batches in parallel.
func (s *System) ExecBatch(reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	return s.ExecBatchCtx(context.Background(), reqs)
}

// ExecBatchCtx is ExecBatch carrying a request context. When the context
// holds an obs trace the round becomes one "mbds.batch" span with one
// "backend.batch" child per backend — not one span per request.
func (s *System) ExecBatchCtx(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	if err := s.beginOp(); err != nil {
		return nil, 0, err
	}
	defer s.opWG.Done()
	s.fence.RLock()
	defer s.fence.RUnlock()
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "mbds.batch")
	if span != nil {
		span.SetAttr("requests", strconv.Itoa(len(reqs)))
	}
	results, simt, err := s.execBatch(ctx, reqs)
	if err == nil {
		for _, req := range reqs {
			s.logCatchup(req)
		}
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	} else {
		span.AddSim(simt)
	}
	span.End()
	s.metrics.batches.Inc()
	s.metrics.requests.Add(uint64(len(reqs)))
	if err == nil {
		s.metrics.simSec.Observe(simt.Seconds())
		s.metrics.wallSec.Observe(time.Since(start).Seconds())
	}
	return results, simt, err
}

func (s *System) execBatch(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	if len(reqs) == 0 {
		return nil, 0, nil
	}
	for i, req := range reqs {
		if err := req.Validate(); err != nil {
			return nil, 0, fmt.Errorf("mbds: batch request %d: %w", i, err)
		}
		if req.Kind == abdl.Insert {
			if err := s.dir.ValidateRecord(req.Record); err != nil {
				return nil, 0, fmt.Errorf("mbds: batch request %d: %w", i, err)
			}
		}
	}

	results := make([]*kdb.Result, len(reqs))
	var extraSim time.Duration

	// Plan: route each request to its backends. Inserts go to their holder
	// set (with a controller-assigned key under replication, so every copy
	// shares it); RETRIEVE-COMMON is a two-phase semi-join that cannot ride
	// one bus round, so it executes inline; everything else broadcasts.
	const (
		planBroadcast = iota
		planInsert
		planInline
	)
	view := s.viewSnap()
	viewPos := make(map[*backend]int, len(view))
	for i, b := range view {
		viewPos[b] = i
	}
	plan := make([]int, len(reqs))
	insertPrimary := make([]*backend, len(reqs))
	slots := make([][]batchSlot, len(view))
	for i, req := range reqs {
		switch req.Kind {
		case abdl.RetrieveCommon:
			plan[i] = planInline
			res, t, err := s.execTimed(ctx, req)
			if err != nil {
				return nil, 0, fmt.Errorf("mbds: batch request %d: %w", i, err)
			}
			results[i] = res
			extraSim += t
		case abdl.Insert:
			plan[i] = planInsert
			r := req
			if r.ForceID != 0 {
				s.seedNextID(uint64(r.ForceID))
			} else if s.cfg.Replicas > 0 {
				cp := *r
				cp.ForceID = abdm.RecordID(s.nextID.Add(1))
				r = &cp
			}
			insertPrimary[i] = s.insertPrimaryFor(r, view)
			for _, b := range s.holdersIn(view, insertPrimary[i]) {
				slots[viewPos[b]] = append(slots[viewPos[b]], batchSlot{pos: i, req: r})
			}
		default:
			plan[i] = planBroadcast
			r := withCacheKey(req)
			for p := range view {
				slots[p] = append(slots[p], batchSlot{pos: i, req: r})
			}
		}
	}

	// Fan out: one message per backend with a non-empty sub-batch, under one
	// admit/retry/breaker pass per backend.
	type batchReply struct {
		id      int
		slots   []batchSlot
		results []*kdb.Result
		err     error
	}
	var targets []*backend
	for _, b := range view {
		if len(slots[viewPos[b]]) > 0 {
			targets = append(targets, b)
		}
	}
	replies := make(chan batchReply, len(targets))
	dispatch := func(b *backend) {
		sl := slots[viewPos[b]]
		sub := make([]*abdl.Request, len(sl))
		for j, slot := range sl {
			sub[j] = slot.req
		}
		res, err := s.callBackendBatchTraced(ctx, b, sub)
		replies <- batchReply{id: b.id, slots: sl, results: res, err: err}
	}
	if s.cfg.Serial {
		go func() {
			for _, b := range targets {
				dispatch(b)
			}
		}()
	} else {
		for _, b := range targets {
			go func(b *backend) { dispatch(b) }(b)
		}
	}

	// Merge positionally. A backend's simulated time is the sum of its
	// sub-batch's disk times (it works the batch sequentially on its own
	// disk); the round's time is the slowest backend since backends overlap.
	insertCopies := make([]int, len(reqs))
	var worst time.Duration
	var firstErr error
	failed := 0
	for range targets {
		r := <-replies
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("mbds: backend %d batch: %w", r.id, r.err)
			}
			continue
		}
		var sum time.Duration
		for j, res := range r.results {
			sum += s.cfg.Disk.Time(res.Cost)
			pos := r.slots[j].pos
			if plan[pos] == planInsert {
				insertCopies[pos]++
				if results[pos] == nil {
					results[pos] = res
				} else {
					results[pos].Cost.Add(res.Cost)
				}
				continue
			}
			if results[pos] == nil {
				results[pos] = &kdb.Result{Op: r.slots[j].req.Kind}
			}
			results[pos].Merge(res)
		}
		if sum > worst {
			worst = sum
		}
	}

	// A failed backend fails every broadcast position at once, so the
	// all-or-nothing tolerance check is per round: more failures than
	// replica copies means some partition is unrepresented.
	if failed > 0 && failed > s.cfg.Replicas {
		for i := range reqs {
			if plan[i] == planBroadcast {
				return nil, 0, firstErr
			}
		}
	}
	for i, req := range reqs {
		switch plan[i] {
		case planInline:
			// Already resolved.
		case planInsert:
			if insertCopies[i] == 0 {
				if firstErr == nil {
					firstErr = fmt.Errorf("mbds: batch request %d: insert wrote no copy", i)
				}
				return nil, 0, firstErr
			}
			// One logical record, however many copies were written.
			results[i].Count = 1
			if len(results[i].Affected) > 0 {
				s.notePlacement(results[i].Affected[0], insertPrimary[i])
			}
		default:
			if results[i] == nil {
				results[i] = &kdb.Result{Op: req.Kind}
			}
			if s.cfg.Replicas > 0 || s.migOn.Load() {
				before := len(results[i].Records)
				results[i].DedupByID()
				if removed := before - len(results[i].Records); removed > 0 {
					s.metrics.dedup.Add(uint64(removed))
				}
			}
			results[i].RecomputeAggregates(req.Target)
			if req.Kind == abdl.MvccGC || req.Kind == abdl.MvccAbort {
				s.evictPlaced(results[i].Affected)
			}
		}
	}
	return results, extraSim + 2*s.cfg.MsgLatency + worst, nil
}

// callBackendBatchTraced wraps callBackendBatch in one per-backend span
// charged with the backend's summed simulated disk time.
func (s *System) callBackendBatchTraced(ctx context.Context, b *backend, reqs []*abdl.Request) ([]*kdb.Result, error) {
	_, span := obs.StartSpan(ctx, "backend.batch")
	if span != nil {
		span.SetAttr("backend", strconv.Itoa(b.id))
		span.SetAttr("requests", strconv.Itoa(len(reqs)))
	}
	res, err := s.callBackendBatch(b, reqs)
	if err != nil {
		span.SetAttr("error", err.Error())
	} else {
		var sum time.Duration
		for _, r := range res {
			sum += s.cfg.Disk.Time(r.Cost)
		}
		span.AddSim(sum)
	}
	span.End()
	return res, err
}

// callBackendBatch sends one batch to one backend under the same fault
// policy as callBackend: breaker-gated admission, per-attempt deadline, and
// bounded retries. The whole batch is the retry unit, so a resend is safe
// only when every request in it is idempotent.
func (s *System) callBackendBatch(b *backend, reqs []*abdl.Request) ([]*kdb.Result, error) {
	idem := true
	for _, r := range reqs {
		if !idempotent(r) {
			idem = false
			break
		}
	}
	for attempt := 0; ; attempt++ {
		probing, ok := b.admit(s.cfg)
		if !ok {
			return nil, &BackendDownError{Backend: b.id, Last: b.snapshotHealth().LastError}
		}
		if attempt > 0 {
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
		res, err := s.callOnceBatch(b, reqs)
		if err == nil {
			b.noteSuccess()
			return res, nil
		}
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		b.metrics.failures.Inc()
		b.noteFailure(err, s.cfg)
		if !transient(err) || (maybeApplied(err) && !idem) || attempt >= s.cfg.MaxRetries {
			return nil, err
		}
		if probing && !b.snapshotHealth().Up {
			return nil, err
		}
	}
}

// callOnceBatch performs a single batched bus round trip with the configured
// deadline.
func (s *System) callOnceBatch(b *backend, reqs []*abdl.Request) ([]*kdb.Result, error) {
	b.metrics.queue.Inc()
	defer b.metrics.queue.Dec()
	reply := make(chan jobReply, 1)
	var timeout <-chan time.Time
	if s.cfg.RequestTimeout > 0 {
		t := time.NewTimer(s.cfg.RequestTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case b.reqCh <- job{batch: reqs, reply: reply}:
	case <-timeout:
		return nil, &DeadlineError{Backend: b.id, Timeout: s.cfg.RequestTimeout}
	case <-s.closedCh:
		return nil, ErrClosed
	}
	select {
	case r := <-reply:
		return r.results, r.err
	case <-timeout:
		return nil, &DeadlineError{Backend: b.id, Timeout: s.cfg.RequestTimeout}
	case <-s.closedCh:
		return nil, ErrClosed
	}
}
