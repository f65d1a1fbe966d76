package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// E15ElasticScaling extends E6's scaling claim to a live fleet: instead of
// constructing a fresh system per backend count, ONE system under a live
// write workload grows from two to four backends (AddBackend + Rebalance),
// is probed, and is drained back down — with zero failed requests and the
// writer's records intact throughout. The probe response times must trace
// E6's curve: the doubling cuts simulated response by at least 20%, and the
// drain restores the two-backend cost per record the slowest backend
// examines. That cost is compared, not the raw figure, because which
// backend a record returns to is decided by its database key, and the keys
// the concurrent load handed out interleave differently from run to run:
// the drained-back split of the probed file, and with it the slowest
// backend's share, varies while the per-record cost stays put.
func E15ElasticScaling() *Report {
	const id, title = "E15", "Elastic membership — E6's scaling curve on one live fleet"
	s, err := newSession(scaleConfig(1), 2)
	if err != nil {
		return failf(id, title, "setup: %v", err)
	}
	defer s.close()

	probe := func() (time.Duration, error) {
		_, rt, err := s.sys.ExecTimed(sweepQuery)
		return rt, err
	}
	// slowest reports the records the probe examines on the backend that
	// examines the most: the share the simulated response waits for.
	slowest := func() (int, error) {
		most := 0
		for pos := 0; pos < s.sys.Backends(); pos++ {
			res, err := s.sys.Store(pos).Exec(sweepQuery)
			if err != nil {
				return 0, err
			}
			most = max(most, res.Cost.RecordsExam)
		}
		return most, nil
	}

	// The live writer: a stream of new course records, keyed past the loaded
	// instance so surrogate keys stay unique. It runs across every join,
	// migration, and drain; one failed insert fails the experiment.
	courseKey := s.db.AB.KeyOf("course")
	tmpl, _ := s.db.AB.Dir.FileTemplate("course")
	nextKey := int64(s.db.Instance.MaxKey()) + 1
	var (
		wg       sync.WaitGroup
		inserted atomic.Int64
		failures atomic.Int64
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := abdm.NewRecord("course")
			rec.Set(courseKey, abdm.Int(nextKey))
			nextKey++
			for _, attr := range tmpl {
				if rec.Has(attr) {
					continue
				}
				switch attr {
				case "title":
					rec.Set(attr, abdm.String(fmt.Sprintf("Elastic Course %05d", i)))
				case "semester":
					rec.Set(attr, abdm.String("Elastic"))
				case "credits":
					rec.Set(attr, abdm.Int(3))
				default:
					rec.Set(attr, abdm.Null())
				}
			}
			if _, err := s.sys.Exec(abdl.NewInsert(rec)); err != nil {
				failures.Add(1)
				return
			}
			inserted.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %s\n", "fleet", "backends", "response")
	var sim time.Duration
	rt2, err := probe()
	if err != nil {
		return failf(id, title, "probe: %v", err)
	}
	sim += rt2
	exam2, err := slowest()
	if err != nil {
		return failf(id, title, "probe: %v", err)
	}
	fmt.Fprintf(&b, "%-22s %-10d %v (slowest backend examines %d records)\n", "initial", s.sys.Backends(), rt2, exam2)

	for i := 0; i < 2; i++ {
		pos, err := s.sys.AddBackend()
		if err != nil {
			return failf(id, title, "add: %v", err)
		}
		if err := s.sys.Rebalance(pos); err != nil {
			return failf(id, title, "rebalance: %v", err)
		}
	}
	rt4, err := probe()
	if err != nil {
		return failf(id, title, "probe: %v", err)
	}
	sim += rt4
	fmt.Fprintf(&b, "%-22s %-10d %v\n", "grown (add+rebalance)", s.sys.Backends(), rt4)

	if err := s.sys.DrainBackend(3); err != nil {
		return failf(id, title, "drain: %v", err)
	}
	if err := s.sys.DrainBackend(2); err != nil {
		return failf(id, title, "drain: %v", err)
	}
	rtBack, err := probe()
	if err != nil {
		return failf(id, title, "probe: %v", err)
	}
	sim += rtBack
	examBack, err := slowest()
	if err != nil {
		return failf(id, title, "probe: %v", err)
	}
	fmt.Fprintf(&b, "%-22s %-10d %v (slowest backend examines %d records)\n", "drained back", s.sys.Backends(), rtBack, examBack)

	close(stop)
	wg.Wait()

	// The writer's records survived the churn, each exactly once.
	res, err := s.sys.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "semester", Op: abdm.OpEq, Val: abdm.String("Elastic")},
	), "title"))
	if err != nil {
		return failf(id, title, "final read: %v", err)
	}
	st := s.sys.MigrationStats()
	fmt.Fprintf(&b, "live writer: %d inserts, %d failures, %d found after churn\n",
		inserted.Load(), failures.Load(), len(res.Records))
	fmt.Fprintf(&b, "migration  : %d keys, %d bytes, %d catch-up entries, epoch %d\n",
		st.Keys, st.Bytes, st.CatchupEntries, st.Epoch)

	// The drain gives the two-backend figure back: the same cost per record
	// on the slowest backend.
	back := (float64(rtBack) / float64(examBack)) / (float64(rt2) / float64(exam2))
	fmt.Fprintf(&b, "drained back / initial, per slowest-backend record: %.2f\n", back)
	ok := failures.Load() == 0 &&
		int64(len(res.Records)) == inserted.Load() &&
		float64(rt4) <= 0.8*float64(rt2) && // the doubling pays, as in E6
		back <= 1.2 && back >= 0.8
	r := report(id, title, ok, b.String())
	r.Sim = sim
	return r
}
