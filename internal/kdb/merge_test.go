package kdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// referenceMergeGroups is the map-based merge mergeGroups replaced: it
// collects every group by the string form of its key, copies each group's
// records, sorts the keys and each group's records by database key.
func referenceMergeGroups(a, b []Group) []Group {
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
				cp.Aggs = nil
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

// randomGroups builds a group list as groupBy emits it: keys drawn from a
// mixed pool of ints and strings, ordered by their string form, each
// group's records ordered by database key. A database key always maps to
// the same row, as replica copies do.
func randomGroups(rng *rand.Rand, rows map[abdm.RecordID]*abdm.Record) []Group {
	pool := []abdm.Value{abdm.Int(1), abdm.Int(2), abdm.Int(10), abdm.Int(-3),
		abdm.String("a"), abdm.String("b"), abdm.String("ab"), abdm.Null()}
	var gs []Group
	for _, v := range pool {
		if rng.Intn(2) == 0 {
			continue
		}
		g := Group{By: v, Aggs: []AggValue{{Val: abdm.Int(rng.Int63n(9))}}}
		seen := map[abdm.RecordID]bool{}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			id := abdm.RecordID(rng.Intn(40) + 1)
			if seen[id] {
				continue
			}
			seen[id] = true
			if rows[id] == nil {
				rows[id] = abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(int64(id))})
			}
			g.Recs = append(g.Recs, StoredRecord{ID: id, Rec: rows[id]})
		}
		sortStoredByID(g.Recs)
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].By.String() < gs[j].By.String() })
	return gs
}

// cloneGroups deep-copies a group list's slices, to check an input kept
// its contents.
func cloneGroups(gs []Group) []Group {
	out := slices.Clone(gs)
	for i := range out {
		out[i].Recs = slices.Clone(out[i].Recs)
		out[i].Aggs = slices.Clone(out[i].Aggs)
	}
	return out
}

// TestMergeGroupsMatchesReference: on random group lists, chained as the
// controller merges one backend after another, the one-pass merge returns
// what the map-based merge returned and leaves every input as it was.
func TestMergeGroupsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		rows := map[abdm.RecordID]*abdm.Record{}
		parts := make([][]Group, 1+rng.Intn(4))
		held := make([][]Group, len(parts))
		for i := range parts {
			parts[i] = randomGroups(rng, rows)
			held[i] = cloneGroups(parts[i])
		}
		var got, want []Group
		for _, p := range parts {
			got = mergeGroups(got, p)
			want = referenceMergeGroups(want, p)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d groups, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].By.String() != want[i].By.String() || !reflect.DeepEqual(got[i].Recs, want[i].Recs) ||
				!reflect.DeepEqual(got[i].Aggs, want[i].Aggs) {
				t.Fatalf("iter %d: group %d = %+v, want %+v", iter, i, got[i], want[i])
			}
		}
		for i := range parts {
			if !reflect.DeepEqual(parts[i], held[i]) {
				t.Fatalf("iter %d: merge wrote into input %d", iter, i)
			}
		}
	}
}

// TestSplitGroupMergeAllocs: one dept of 16 000 courses grouped by credits
// on two stores (each holding every other key) merges, as the controller
// merges backend results, with one allocation per merge for the group list
// and one per key both stores hold — no map and no copy of a group found on
// one side.
func TestSplitGroupMergeAllocs(t *testing.T) {
	dir := testDir(t)
	whole, even, odd := NewStore(dir), NewStore(dir), NewStore(dir)
	for id := 1; id <= 16000; id++ {
		req := abdl.NewInsert(abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("c%d", id))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(id / 2 % 16))}))
		req.ForceID = abdm.RecordID(id)
		half := even
		if id%2 == 1 {
			half = odd
		}
		for _, st := range []*Store{whole, half} {
			if _, err := st.Exec(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}), "credits")
	q.By = "credits"
	retrieve := func(st *Store) *Result {
		res, err := st.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ra, rb, rw := retrieve(even), retrieve(odd), retrieve(whole)
	if len(ra.Groups) != 16 || len(rb.Groups) != 16 {
		t.Fatalf("split groups = %d and %d, want 16 each", len(ra.Groups), len(rb.Groups))
	}
	merged := mergeGroups(mergeGroups(nil, ra.Groups), rb.Groups)
	for i, g := range merged {
		if !slices.EqualFunc(g.Recs, rw.Groups[i].Recs, func(x, y StoredRecord) bool { return x.ID == y.ID }) {
			t.Fatalf("merged group %v differs from the whole store's", g.By)
		}
	}
	split := testing.AllocsPerRun(20, func() { mergeGroups(mergeGroups(nil, ra.Groups), rb.Groups) })
	if want := float64(2 + 16); split > want {
		t.Fatalf("split merge = %v allocs, want at most %v", split, want)
	}
	t.Logf("merging 16 000 rows in 16 groups: %v allocs split over two stores", split)
}
