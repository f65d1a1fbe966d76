package kdb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"mlds/internal/abdm"
)

// attrIndex is an inverted index over one attribute: value → posting list of
// record IDs. A sorted list of distinct values supports range predicates.
type attrIndex struct {
	postings map[ikey][]abdm.RecordID // canonical value key → sorted IDs

	// sorted is the lazily-built distinct-value ordering for range scans and
	// the checkpoint image. Mutations (which run under the store's write lock)
	// invalidate it; range lookups (which run under the store's read lock,
	// possibly many at once) rebuild it under sortMu so concurrent readers
	// never race on the build.
	sortMu sync.Mutex
	sorted []ikey // keys, sorted by value; nil when stale
}

func newAttrIndex() *attrIndex {
	return &attrIndex{postings: make(map[ikey][]abdm.RecordID)}
}

// ikey is the canonical, comparable index key of a value. Ints and floats
// that compare equal share a key so numeric predicates hit either
// representation: every integral number in int64 range is kind KindInt with
// the exact value in n — never routed through float64, so distinct int64
// values beyond 2^53 keep distinct keys — and any other float is kind
// KindFloat with its bits in n. Strings keep their text in s; NULL is the
// zero key.
type ikey struct {
	kind abdm.Kind
	n    int64
	s    string
}

// keyOf builds the canonical index key for a value.
func keyOf(v abdm.Value) ikey {
	switch v.Kind() {
	case abdm.KindInt:
		return ikey{kind: abdm.KindInt, n: v.AsInt()}
	case abdm.KindFloat:
		f := v.AsFloat()
		// An integral float in int64 range shares its key with the equal
		// int: both bounds are exactly representable as float64. -0 is
		// integral and lands on 0.
		if f == math.Trunc(f) && f >= -9223372036854775808.0 && f < 9223372036854775808.0 {
			return ikey{kind: abdm.KindInt, n: int64(f)}
		}
		if math.IsNaN(f) {
			f = math.NaN() // one key for every NaN payload
		}
		return ikey{kind: abdm.KindFloat, n: int64(math.Float64bits(f))}
	case abdm.KindString:
		return ikey{kind: abdm.KindString, s: v.AsString()}
	default:
		return ikey{}
	}
}

// value returns the value the key stands for. An integral number comes back
// as an int, which compares with ints and floats exactly as the float it may
// have been stored as.
func (k ikey) value() abdm.Value {
	switch k.kind {
	case abdm.KindInt:
		return abdm.Int(k.n)
	case abdm.KindFloat:
		return abdm.Float(k.float())
	case abdm.KindString:
		return abdm.String(k.s)
	default:
		return abdm.Null()
	}
}

// float returns a numeric key's value as a float64.
func (k ikey) float() float64 {
	if k.kind == abdm.KindInt {
		return float64(k.n)
	}
	return math.Float64frombits(uint64(k.n))
}

// keyRank orders the key kinds the way the index lists them: NULL, then
// numbers, then strings.
func keyRank(k abdm.Kind) int {
	switch k {
	case abdm.KindNull:
		return 0
	case abdm.KindString:
		return 2
	default:
		return 1
	}
}

// compareKeys orders two keys by value: NULL first, then numbers
// numerically (NaN before the rest), then strings lexicographically.
func compareKeys(a, b ikey) int {
	if c := cmp.Compare(keyRank(a.kind), keyRank(b.kind)); c != 0 {
		return c
	}
	switch {
	case a.kind == abdm.KindString:
		return strings.Compare(a.s, b.s)
	case a.kind == abdm.KindInt && b.kind == abdm.KindInt:
		return cmp.Compare(a.n, b.n)
	case a.kind == abdm.KindNull:
		return 0
	}
	return cmp.Compare(a.float(), b.float())
}

func (ix *attrIndex) add(v abdm.Value, id abdm.RecordID) {
	k := keyOf(v)
	ids, ok := ix.postings[k]
	if !ok {
		ix.sorted = nil
	}
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
	k := keyOf(v)
	ids := ix.postings[k]
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		ids = append(ids[:i], ids[i+1:]...)
		if len(ids) == 0 {
			delete(ix.postings, k)
			ix.sorted = nil
		} else {
			ix.postings[k] = ids
		}
	}
}

// lookupEq returns the posting list for an exact value.
func (ix *attrIndex) lookupEq(v abdm.Value) []abdm.RecordID {
	return ix.postings[keyOf(v)]
}

// ensureSorted materialises the distinct-value ordering for range scans and
// returns it. Callers hold at least the store's read lock (excluding
// mutations); sortMu additionally serialises concurrent readers rebuilding
// the same stale ordering.
func (ix *attrIndex) ensureSorted() []ikey {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if ix.sorted != nil {
		return ix.sorted
	}
	keys := make([]ikey, 0, len(ix.postings))
	for k := range ix.postings {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
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
		probes++
		cmp, err := k.value().Compare(bound)
		if err != nil {
			if op == abdm.OpNe {
				ids = append(ids, ix.postings[k]...)
			}
			continue
		}
		if op.Holds(cmp) {
			ids = append(ids, ix.postings[k]...)
		}
	}
	slices.Sort(ids)
	return ids, probes
}

// cardinality returns the number of records indexed under the value.
func (ix *attrIndex) cardinality(v abdm.Value) int { return len(ix.postings[keyOf(v)]) }
