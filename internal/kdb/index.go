package kdb

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mlds/internal/abdm"
)

// attrIndex is an inverted index over one attribute: value → posting list of
// record IDs. A sorted list of distinct values supports range predicates.
type attrIndex struct {
	postings map[string][]abdm.RecordID // canonical value key → sorted IDs
	values   map[string]abdm.Value      // canonical key → representative value

	// sorted is the lazily-built distinct-value ordering for range scans.
	// Mutations (which run under the store's write lock) invalidate it;
	// range lookups (which run under the store's read lock, possibly many at
	// once) rebuild it under sortMu so concurrent readers never race on the
	// build.
	sortMu sync.Mutex
	sorted []string // canonical keys, sorted by value; nil when stale
}

func newAttrIndex() *attrIndex {
	return &attrIndex{
		postings: make(map[string][]abdm.RecordID),
		values:   make(map[string]abdm.Value),
	}
}

// valueKey builds the canonical index key for a value. Ints and floats that
// compare equal share a key so numeric predicates hit either representation.
// Integral values canonicalise through exact int64 formatting — never through
// float64 — so distinct int64 values beyond 2^53 keep distinct keys.
func valueKey(v abdm.Value) string {
	switch v.Kind() {
	case abdm.KindInt:
		return "n" + strconv.FormatInt(v.AsInt(), 10)
	case abdm.KindFloat:
		f := v.AsFloat()
		// An integral float in int64 range shares its key with the equal
		// int: both bounds are exactly representable as float64.
		if f == math.Trunc(f) && f >= -9223372036854775808.0 && f < 9223372036854775808.0 {
			return "n" + strconv.FormatInt(int64(f), 10)
		}
		return "n" + v.String()
	case abdm.KindString:
		return "s" + v.AsString()
	default:
		return "0"
	}
}

func (ix *attrIndex) add(v abdm.Value, id abdm.RecordID) {
	k := valueKey(v)
	if _, ok := ix.postings[k]; !ok {
		ix.values[k] = v
		ix.sorted = nil
	}
	ids := ix.postings[k]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	ix.postings[k] = ids
}

func (ix *attrIndex) remove(v abdm.Value, id abdm.RecordID) {
	k := valueKey(v)
	ids := ix.postings[k]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		ids = append(ids[:i], ids[i+1:]...)
		if len(ids) == 0 {
			delete(ix.postings, k)
			delete(ix.values, k)
			ix.sorted = nil
		} else {
			ix.postings[k] = ids
		}
	}
}

// lookupEq returns the posting list for an exact value.
func (ix *attrIndex) lookupEq(v abdm.Value) []abdm.RecordID {
	return ix.postings[valueKey(v)]
}

// ensureSorted materialises the distinct-value ordering for range scans and
// returns it. Callers hold at least the store's read lock (excluding
// mutations); sortMu additionally serialises concurrent readers rebuilding
// the same stale ordering.
func (ix *attrIndex) ensureSorted() []string {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted != nil {
		return ix.sorted
	}
	keys := make([]string, 0, len(ix.values))
	for k := range ix.values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		c, err := ix.values[keys[i]].Compare(ix.values[keys[j]])
		if err != nil {
			// Incomparable kinds: order by kind tag then key for stability.
			return keys[i] < keys[j]
		}
		return c < 0
	})
	ix.sorted = keys
	return keys
}

// lookupRange returns IDs whose values satisfy op against bound. probes
// reports how many distinct index entries were examined (directory cost).
func (ix *attrIndex) lookupRange(op abdm.Op, bound abdm.Value) (ids []abdm.RecordID, probes int) {
	if op == abdm.OpEq {
		return ix.lookupEq(bound), 1
	}
	for _, k := range ix.ensureSorted() {
		v := ix.values[k]
		cmp, err := v.Compare(bound)
		if err != nil {
			if op == abdm.OpNe {
				ids = append(ids, ix.postings[k]...)
			}
			probes++
			continue
		}
		probes++
		if op.Holds(cmp) {
			ids = append(ids, ix.postings[k]...)
		}
	}
	slices.Sort(ids)
	return ids, probes
}

// cardinality returns the number of records indexed under the value.
func (ix *attrIndex) cardinality(v abdm.Value) int { return len(ix.postings[valueKey(v)]) }
