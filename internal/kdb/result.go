package kdb

import (
	"fmt"
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
	// A partial result without records (a backend holding none of the
	// matches) leaves r's order as it is: skip the re-sort.
	if len(o.Records) > 0 {
		r.Records = append(r.Records, o.Records...)
		sortStoredByID(r.Records)
	}
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

// mergeGroups merges two group lists in one pass. Both are ordered by the
// string form of their key, as groupBy emits them and as this merge keeps
// them. A group on one side only is carried over as it is, sharing its
// record slice with the input; a key on both sides gets one new record
// slice, ordered by database key. The merge writes into no input slice.
// Aggregates are dropped — the caller recomputes them over the merged rows.
func mergeGroups(a, b []Group) []Group {
	if len(b) == 0 {
		return a
	}
	out := make([]Group, 0, len(a)+len(b))
	ka, kb := firstKey(a), firstKey(b)
	for len(a) > 0 || len(b) > 0 {
		var g Group
		switch {
		case len(b) == 0 || len(a) > 0 && ka < kb:
			g, a = a[0], a[1:]
			ka = firstKey(a)
		case len(a) == 0 || kb < ka:
			g, b = b[0], b[1:]
			kb = firstKey(b)
		default:
			g = a[0]
			g.Recs = mergeByID(a[0].Recs, b[0].Recs)
			a, b = a[1:], b[1:]
			ka, kb = firstKey(a), firstKey(b)
		}
		g.Aggs = nil
		out = append(out, g)
	}
	return out
}

// firstKey is the ordering key of a group list's first group.
func firstKey(gs []Group) string {
	if len(gs) == 0 {
		return ""
	}
	return gs[0].By.String()
}

// mergeByID merges two record lists ordered by database key into a new one.
func mergeByID(a, b []StoredRecord) []StoredRecord {
	out := make([]StoredRecord, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].ID < a[0].ID {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
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
