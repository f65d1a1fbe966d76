package kdb

import (
	"fmt"
	"sort"
	"strings"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// StoredRecord pairs a record with its database key. The database key is
// what CODASYL currency indicators hold.
//
// A *abdm.Record reachable from a StoredRecord the kernel handed out — in a
// Result, a Snapshot, a GetByID — is read-only. Stored records are immutable
// once published: the store, its version chains, its result cache and every
// result ever returned share the same pointers, and an UPDATE installs a
// modified copy instead of writing into the record. Clone before Set or
// Delete.
type StoredRecord struct {
	ID  abdm.RecordID
	Rec *abdm.Record
}

// AggValue is one computed aggregate of a RETRIEVE target list.
type AggValue struct {
	Item abdl.TargetItem
	Val  abdm.Value
}

// Group is one by-clause group of a RETRIEVE result.
type Group struct {
	By   abdm.Value
	Recs []StoredRecord
	Aggs []AggValue
}

// Result is the outcome of executing one ABDL request. The Result and its
// slices belong to the caller, who may sort, filter and merge them; the
// records the slices point at are shared and read-only (see StoredRecord).
type Result struct {
	Op      abdl.Kind
	Records []StoredRecord // RETRIEVE: qualifying records, projected
	Groups  []Group        // RETRIEVE with by-clause or aggregates
	Count   int            // INSERT/DELETE/UPDATE: records affected
	// Affected lists the database keys DELETE/UPDATE touched. The
	// multi-backend layer needs them under replicated placement: every
	// replica holder reports the same key, so the controller can count
	// logical records rather than physical copies.
	Affected []abdm.RecordID
	Cost     Cost
	// Versions is the backend's live version-chain entry count after an MVCC
	// administration operation (MVCC-COMMIT/ABORT/GC); the multi-backend
	// merge sums it so the controller can gauge total version footprint.
	Versions int
	// Paths lists the access paths the planner chose, one per conjunction
	// evaluated: "index-eq(attr)", "index-range(attr)", "scan(file)",
	// "empty(attr)" for provably-empty conjunctions. Diagnostic only.
	Paths []string
}

// IDs returns the database keys of the result records in order.
func (r *Result) IDs() []abdm.RecordID {
	out := make([]abdm.RecordID, len(r.Records))
	for i, sr := range r.Records {
		out[i] = sr.ID
	}
	return out
}

// Merge folds another partial result (from a different backend) into r,
// keeping records ordered by ID and re-aggregating groups.
func (r *Result) Merge(o *Result) {
	r.Count += o.Count
	r.Versions += o.Versions
	r.Cost.Add(o.Cost)
	for _, p := range o.Paths {
		seen := false
		for _, q := range r.Paths {
			if q == p {
				seen = true
				break
			}
		}
		if !seen {
			r.Paths = append(r.Paths, p)
		}
	}
	r.Records = append(r.Records, o.Records...)
	sortStoredByID(r.Records)
	r.Affected = append(r.Affected, o.Affected...)
	r.Groups = mergeGroups(r.Groups, o.Groups)
}

// DedupByID collapses duplicate record copies that replicated placement
// returns from a broadcast: result records and group members are
// deduplicated by database key, and Count is recomputed from the distinct
// Affected keys when the operation reported them. Aggregates must be
// recomputed after deduplication.
func (r *Result) DedupByID() {
	r.Records = dedupStored(r.Records)
	for i := range r.Groups {
		r.Groups[i].Recs = dedupStored(r.Groups[i].Recs)
	}
	if len(r.Affected) > 0 {
		seen := make(map[abdm.RecordID]bool, len(r.Affected))
		out := r.Affected[:0]
		for _, id := range r.Affected {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		r.Affected = out
		r.Count = len(out)
	}
}

// dedupStored keeps the first record of each database key, preserving order.
func dedupStored(in []StoredRecord) []StoredRecord {
	if len(in) < 2 {
		return in
	}
	seen := make(map[abdm.RecordID]bool, len(in))
	out := in[:0]
	for _, sr := range in {
		if !seen[sr.ID] {
			seen[sr.ID] = true
			out = append(out, sr)
		}
	}
	return out
}

func mergeGroups(a, b []Group) []Group {
	if len(b) == 0 {
		return a
	}
	byKey := make(map[string]*Group)
	var order []string
	add := func(gs []Group) {
		for _, g := range gs {
			k := g.By.String()
			if ex, ok := byKey[k]; ok {
				ex.Recs = append(ex.Recs, g.Recs...)
			} else {
				cp := g
				cp.Recs = append([]StoredRecord(nil), g.Recs...)
				cp.Aggs = nil // recomputed below
				byKey[k] = &cp
				order = append(order, k)
			}
		}
	}
	add(a)
	add(b)
	sort.Strings(order)
	out := make([]Group, 0, len(order))
	for _, k := range order {
		g := byKey[k]
		sortStoredByID(g.Recs)
		out = append(out, *g)
	}
	return out
}

// RecomputeAggregates fills in group aggregates after a merge, using the
// request's target list. Aggregates cannot simply be summed across backends
// (AVG is not distributive over partial averages), so merged results carry
// raw records and aggregate here.
func (r *Result) RecomputeAggregates(target []abdl.TargetItem) {
	hasAgg := false
	for _, t := range target {
		if t.Agg != abdl.AggNone {
			hasAgg = true
		}
	}
	if !hasAgg {
		return
	}
	if len(r.Groups) == 0 && len(r.Records) > 0 {
		r.Groups = []Group{{By: abdm.Null(), Recs: r.Records}}
	}
	for i := range r.Groups {
		r.Groups[i].Aggs = computeAggs(target, r.Groups[i].Recs)
	}
}

func computeAggs(target []abdl.TargetItem, recs []StoredRecord) []AggValue {
	var out []AggValue
	for _, t := range target {
		if t.Agg == abdl.AggNone {
			continue
		}
		out = append(out, AggValue{Item: t, Val: aggregate(t, recs)})
	}
	return out
}

func aggregate(t abdl.TargetItem, recs []StoredRecord) abdm.Value {
	var (
		n     int64
		sum   float64
		allIn = true
		isum  int64
		best  abdm.Value
		have  bool
	)
	for _, sr := range recs {
		v, ok := sr.Rec.Get(t.Attr)
		if !ok || v.IsNull() {
			continue
		}
		n++
		switch t.Agg {
		case abdl.AggSum, abdl.AggAvg:
			sum += v.AsFloat()
			if v.Kind() == abdm.KindInt {
				isum += v.AsInt()
			} else {
				allIn = false
			}
		case abdl.AggMax:
			if !have {
				best, have = v, true
			} else if c, err := v.Compare(best); err == nil && c > 0 {
				best = v
			}
		case abdl.AggMin:
			if !have {
				best, have = v, true
			} else if c, err := v.Compare(best); err == nil && c < 0 {
				best = v
			}
		}
	}
	switch t.Agg {
	case abdl.AggCount:
		return abdm.Int(n)
	case abdl.AggSum:
		if allIn {
			return abdm.Int(isum)
		}
		return abdm.Float(sum)
	case abdl.AggAvg:
		if n == 0 {
			return abdm.Null()
		}
		return abdm.Float(sum / float64(n))
	case abdl.AggMax, abdl.AggMin:
		if !have {
			return abdm.Null()
		}
		return best
	}
	return abdm.Null()
}

// String summarises the result for diagnostics.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ", r.Op)
	switch r.Op {
	case abdl.Retrieve, abdl.RetrieveCommon:
		fmt.Fprintf(&b, "%d records", len(r.Records))
		if len(r.Groups) > 0 {
			fmt.Fprintf(&b, ", %d groups", len(r.Groups))
		}
	default:
		fmt.Fprintf(&b, "%d affected", r.Count)
	}
	return b.String()
}
