package kdb

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

func fileQuery(file string, ps ...abdm.Predicate) abdm.Query {
	conj := abdm.Conjunction{{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(file)}}
	conj = append(conj, ps...)
	return abdm.Query{conj}
}

// TestConcurrentRangeRetrieves is the -race regression for the lazy sorted
// key cache in attrIndex: many goroutines issuing range retrieves under the
// store's read lock must not race rebuilding ix.sorted.
func TestConcurrentRangeRetrieves(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 200)
	q := fileQuery("course", abdm.Predicate{Attr: "credits", Op: abdm.OpGe, Val: abdm.Int(3)})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Exec(abdl.NewRetrieve(q, abdl.AllAttrs)); err != nil {
					t.Error(err)
					return
				}
				// Interleave mutations, each adding a credits value the
				// index has not held, so the sorted cache repeatedly has
				// values to merge while other goroutines read it.
				rec := abdm.NewRecord("course",
					abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("X%d-%d", i, len(q)))},
					abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(100 + g*50 + i))},
				)
				if _, err := s.Insert(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeyOfSharesEqualNumbers: ints and floats that compare equal share one
// index key — including -0.0 and 0 — while distinct numbers and a string
// spelling the same digits never do.
func TestKeyOfSharesEqualNumbers(t *testing.T) {
	same := []struct{ x, y abdm.Value }{
		{abdm.Int(42), abdm.Float(42)},
		{abdm.Int(0), abdm.Float(math.Copysign(0, -1))},
		{abdm.Float(0), abdm.Float(math.Copysign(0, -1))},
		{abdm.Int(-7), abdm.Float(-7)},
		{abdm.Float(math.NaN()), abdm.Float(-math.NaN())},
		{abdm.String("x"), abdm.String("x")},
		{abdm.Null(), abdm.Null()},
	}
	for _, p := range same {
		if keyOf(p.x) != keyOf(p.y) {
			t.Errorf("keyOf(%v) != keyOf(%v)", p.x, p.y)
		}
	}
	differ := []struct{ x, y abdm.Value }{
		{abdm.Int(42), abdm.Float(42.5)},
		{abdm.Float(0.1), abdm.Float(0.2)},
		{abdm.Int(42), abdm.String("42")},
		{abdm.Float(42), abdm.String("42")},
		{abdm.Int(0), abdm.String("")},
		{abdm.Int(0), abdm.Null()},
		{abdm.String(""), abdm.Null()},
		{abdm.Float(math.Inf(1)), abdm.Float(math.Inf(-1))},
	}
	for _, p := range differ {
		if keyOf(p.x) == keyOf(p.y) {
			t.Errorf("keyOf(%v) == keyOf(%v)", p.x, p.y)
		}
	}
	// A key stands for a value equal to the one it was made from.
	for _, v := range []abdm.Value{abdm.Int(-3), abdm.Float(2.5), abdm.Float(42), abdm.Float(math.Inf(-1)), abdm.String("s"), abdm.Null()} {
		if back := keyOf(v).value(); !back.Equal(v) {
			t.Errorf("keyOf(%v).value() = %v", v, back)
		}
	}
}

// TestKeyOfBigInt64RoundTrip covers the keyOf canonical form for int64
// values beyond 2^53: adjacent big ints must keep distinct index keys (a
// float64-based form collapses them), while equal int/float pairs still
// share one.
func TestKeyOfBigInt64RoundTrip(t *testing.T) {
	a := int64(1) << 53 // representable as float64
	pairs := []struct{ x, y int64 }{
		{a, a + 1},
		{a + 1, a + 2},
		{9223372036854775806, 9223372036854775807},
		{-9223372036854775808, -9223372036854775807},
	}
	for _, p := range pairs {
		if keyOf(abdm.Int(p.x)) == keyOf(abdm.Int(p.y)) {
			t.Errorf("keyOf collides for %d and %d", p.x, p.y)
		}
	}
	// An integral float beyond 2^53 shares the key of the int it equals.
	if keyOf(abdm.Int(a+2)) != keyOf(abdm.Float(float64(a+2))) {
		t.Errorf("keyOf(Int(2^53+2)) != keyOf(Float(2^53+2))")
	}

	// Round-trip through the store: insert two records whose IDs differ only
	// beyond 2^53, then retrieve and delete by exact value.
	d := abdm.NewDirectory()
	if err := d.DefineAttr("serial", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := d.DefineFile("part", []string{"serial"}); err != nil {
		t.Fatal(err)
	}
	s := NewStore(d)
	for _, v := range []int64{a, a + 1} {
		rec := abdm.NewRecord("part", abdm.Keyword{Attr: "serial", Val: abdm.Int(v)})
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	q := fileQuery("part", abdm.Predicate{Attr: "serial", Op: abdm.OpEq, Val: abdm.Int(a + 1)})
	res, err := s.Exec(abdl.NewRetrieve(q, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("retrieve serial=%d: got %d records, want 1", a+1, len(res.Records))
	}
	if v, _ := res.Records[0].Rec.Get("serial"); v.AsInt() != a+1 {
		t.Fatalf("retrieved serial %d, want %d", v.AsInt(), a+1)
	}
	// Delete must target only the exact value, not its 2^53 neighbour.
	if _, err := s.Exec(abdl.NewDelete(q)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("after targeted delete: %d records, want 1", s.Len())
	}
	rest, err := s.Exec(abdl.NewRetrieve(fileQuery("part"), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rest.Records[0].Rec.Get("serial"); v.AsInt() != a {
		t.Fatalf("surviving serial %d, want %d", v.AsInt(), a)
	}
}

// TestResultCacheHit proves a repeated retrieve is served from the cache, and
// pins the sharing contract of a hit: the Result and its slices are the
// caller's, the rows are shared with the store and never written to.
func TestResultCacheHit(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 50)
	q := fileQuery("course", abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")})
	req := abdl.NewRetrieve(q, abdl.AllAttrs).WithBy("credits")
	exec := func() *Result {
		t.Helper()
		res, err := s.Exec(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	keys := func(recs []StoredRecord) []string {
		out := make([]string, len(recs))
		for i, sr := range recs {
			out[i] = fmt.Sprintf("%d:%s", sr.ID, sr.Rec.Key())
		}
		return out
	}

	first := exec()
	second := exec()
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
	if second.Cost != first.Cost {
		t.Fatalf("cached cost %+v differs from first %+v", second.Cost, first.Cost)
	}
	want := keys(first.Records)
	if got := keys(second.Records); !slices.Equal(got, want) {
		t.Fatalf("hit returned %v, first execution %v", got, want)
	}
	wantGroups := len(first.Groups)

	// Sorting, merging and dedup-ing a hit rearranges the caller's slices
	// only: the next hit is untouched.
	slices.Reverse(second.Records)
	for i := range second.Groups {
		slices.Reverse(second.Groups[i].Recs)
	}
	second.Merge(first)
	second.DedupByID()
	second.Records = second.Records[:1]
	second.Groups = second.Groups[:1]
	third := exec()
	if got := keys(third.Records); !slices.Equal(got, want) {
		t.Fatalf("hit after a caller rearranged the previous hit: %v, want %v", got, want)
	}
	if len(third.Groups) != wantGroups {
		t.Fatalf("hit has %d groups, want %d", len(third.Groups), wantGroups)
	}
	for i, g := range third.Groups {
		if !slices.IsSortedFunc(g.Recs, func(a, b StoredRecord) int { return cmp.Compare(a.ID, b.ID) }) {
			t.Fatalf("group %d of a hit is out of key order", i)
		}
	}

	// A result held across an UPDATE and a DELETE still reads the old values:
	// the store replaced the records, it did not write into them.
	victim, gone := third.Records[0], third.Records[1]
	oldKey, goneKey := victim.Rec.Key(), gone.Rec.Key()
	byTitle := func(sr StoredRecord) abdm.Query {
		title, _ := sr.Rec.Get("title")
		return fileQuery("course", abdm.Predicate{Attr: "title", Op: abdm.OpEq, Val: title})
	}
	if _, err := s.Exec(abdl.NewUpdate(byTitle(victim), abdl.Modifier{Attr: "rating", Val: abdm.Float(9.5)})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(abdl.NewDelete(byTitle(gone))); err != nil {
		t.Fatal(err)
	}
	if victim.Rec.Key() != oldKey || gone.Rec.Key() != goneKey {
		t.Fatal("a mutation wrote into a record an earlier result still holds")
	}
	if got := keys(third.Records); !slices.Equal(got, want) {
		t.Fatalf("result held across UPDATE/DELETE changed: %v, want %v", got, want)
	}

	// Hits after the mutations see the new row and not the deleted one.
	hitsBefore := s.Stats().CacheHits
	fresh := exec()
	again := exec()
	if s.Stats().CacheHits != hitsBefore+1 {
		t.Fatalf("retrieves after the mutations: want one miss then one hit")
	}
	for _, res := range []*Result{fresh, again} {
		if len(res.Records) != len(want)-1 {
			t.Fatalf("after DELETE: %d records, want %d", len(res.Records), len(want)-1)
		}
		if res.Records[0].ID != victim.ID {
			t.Fatalf("first record is %d, want the updated %d", res.Records[0].ID, victim.ID)
		}
		if v, _ := res.Records[0].Rec.Get("rating"); v.AsFloat() != 9.5 {
			t.Fatalf("after UPDATE: rating %v, want 9.5", v)
		}
	}
}

// TestRetrieversHoldResultsAcrossUpdates is the -race tripwire for the
// immutable-row contract: retrievers keep reading the rows of results they
// hold — cache hits and misses, live and snapshot reads — while a writer
// storms UPDATEs over the same keys. A write into a published record is a
// data race against those reads; a torn row also fails the consistency check
// (every UPDATE sets credits and rating to the same number).
func TestRetrieversHoldResultsAcrossUpdates(t *testing.T) {
	stores := map[string]func(t *testing.T) *Store{
		"memory": func(t *testing.T) *Store { return NewStore(testDir(t)) },
		"backed": func(t *testing.T) *Store {
			s, err := CreateBacked(filepath.Join(t.TempDir(), "kdb.pages"), testDir(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.CloseBacking() })
			return s
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			for i := 0; i < 40; i++ {
				rec := abdm.NewRecord("course",
					abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("Course %03d", i))},
					abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
					abdm.Keyword{Attr: "credits", Val: abdm.Int(0)},
					abdm.Keyword{Attr: "rating", Val: abdm.Float(0)},
				)
				if _, err := s.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			all := fileQuery("course")
			consistent := func(res *Result) error {
				for _, sr := range res.Records {
					c, _ := sr.Rec.Get("credits")
					r, _ := sr.Rec.Get("rating")
					if float64(c.AsInt()) != r.AsFloat() {
						return fmt.Errorf("record %d torn: credits %v, rating %v", sr.ID, c, r)
					}
				}
				return nil
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var held []*Result
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						req := abdl.NewRetrieve(all, abdl.AllAttrs)
						if g%2 == 1 {
							req.SnapEpoch = 1 + uint64(i%3) // version-chain reads too
						}
						res, err := s.Exec(req)
						if err != nil {
							t.Error(err)
							return
						}
						held = append(held, res)
						if len(held) > 8 {
							held = held[1:]
						}
						for _, h := range held {
							if err := consistent(h); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			for round := 1; round <= 150; round++ {
				req := abdl.NewUpdate(all,
					abdl.Modifier{Attr: "credits", Val: abdm.Int(int64(round))},
					abdl.Modifier{Attr: "rating", Val: abdm.Float(float64(round))})
				if round%2 == 0 {
					// Every other round goes through the transactional path:
					// pending versions, then a commit stamp.
					req.TxnID = uint64(round)
				}
				if _, err := s.Exec(req); err != nil {
					t.Fatal(err)
				}
				if req.TxnID != 0 {
					stamp := &abdl.Request{Kind: abdl.MvccCommit, TxnID: req.TxnID, MvccEpoch: uint64(round)}
					if _, err := s.Exec(stamp); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestResultCacheInvalidationPerFile proves a mutation invalidates only the
// touched file's cached results: after an insert into "person", the cached
// "course" retrieve still hits while the "person" retrieve recomputes.
func TestResultCacheInvalidationPerFile(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 20)
	person := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("ada")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(36)},
	)
	if _, err := s.Insert(person); err != nil {
		t.Fatal(err)
	}

	courseReq := abdl.NewRetrieve(fileQuery("course"), abdl.AllAttrs)
	personReq := abdl.NewRetrieve(fileQuery("person"), abdl.AllAttrs)
	for _, req := range []*abdl.Request{courseReq, personReq} {
		if _, err := s.Exec(req); err != nil {
			t.Fatal(err)
		}
	}

	// Mutate only "person".
	second := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("grace")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(45)},
	)
	if _, err := s.Insert(second); err != nil {
		t.Fatal(err)
	}

	base := s.Stats()
	courseRes, err := s.Exec(courseReq)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.CacheHits != base.CacheHits+1 {
		t.Fatalf("course retrieve after person insert: hits %d→%d, want a hit", base.CacheHits, after.CacheHits)
	}
	if len(courseRes.Records) != 20 {
		t.Fatalf("course retrieve returned %d records, want 20", len(courseRes.Records))
	}

	personRes, err := s.Exec(personReq)
	if err != nil {
		t.Fatal(err)
	}
	final := s.Stats()
	if final.CacheMisses != after.CacheMisses+1 {
		t.Fatalf("person retrieve after person insert: misses %d→%d, want a miss", after.CacheMisses, final.CacheMisses)
	}
	if len(personRes.Records) != 2 {
		t.Fatalf("person retrieve returned %d records, want 2 (stale cache?)", len(personRes.Records))
	}

	// Deletes and updates invalidate too.
	if _, err := s.Exec(personReq); err != nil { // refill
		t.Fatal(err)
	}
	if _, err := s.Exec(abdl.NewUpdate(
		fileQuery("person", abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String("ada")}),
		abdl.Modifier{Attr: "age", Val: abdm.Int(37)},
	)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(personReq)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Records {
		if name, _ := sr.Rec.Get("name"); name.AsString() == "ada" {
			if age, _ := sr.Rec.Get("age"); age.AsInt() != 37 {
				t.Fatalf("update served stale cached age %d", age.AsInt())
			}
		}
	}
}

// TestResultCacheAllFilesInvalidation covers queries without a file
// predicate: they depend on the store-wide generation, so a mutation in any
// file — including a brand-new one — invalidates them.
func TestResultCacheAllFilesInvalidation(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 5)
	req := abdl.NewRetrieve(abdm.Query{}, abdl.AllAttrs) // unqualified: every record
	res, err := s.Exec(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(res.Records))
	}
	person := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("new")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(1)},
	)
	if _, err := s.Insert(person); err != nil {
		t.Fatal(err)
	}
	res, err = s.Exec(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("after insert into new file: got %d records, want 6", len(res.Records))
	}
}

// TestResultCacheDisabled checks WithResultCache(0) turns the cache off.
func TestResultCacheDisabled(t *testing.T) {
	s := NewStore(testDir(t), WithResultCache(0))
	loadCourses(t, s, 5)
	req := abdl.NewRetrieve(fileQuery("course"), abdl.AllAttrs)
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// TestResultCacheEviction keeps the cache bounded at its capacity.
func TestResultCacheEviction(t *testing.T) {
	s := NewStore(testDir(t), WithResultCache(2))
	loadCourses(t, s, 10)
	for _, dept := range []string{"CS", "Math", "Physics"} {
		q := fileQuery("course", abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String(dept)})
		if _, err := s.Exec(abdl.NewRetrieve(q, abdl.AllAttrs)); err != nil {
			t.Fatal(err)
		}
	}
	s.cache.mu.Lock()
	n := len(s.cache.m)
	s.cache.mu.Unlock()
	if n > 2 {
		t.Fatalf("cache holds %d entries, cap is 2", n)
	}
}

// TestStoreExecBatch runs a mixed batch and checks positional results and
// that a failure surfaces as the failed request's own error.
func TestStoreExecBatch(t *testing.T) {
	s := NewStore(testDir(t))
	reqs := []*abdl.Request{
		abdl.NewInsert(abdm.NewRecord("person",
			abdm.Keyword{Attr: "name", Val: abdm.String("ada")},
			abdm.Keyword{Attr: "age", Val: abdm.Int(36)},
		)),
		abdl.NewRetrieve(fileQuery("person"), abdl.AllAttrs),
	}
	out := make([]*Result, len(reqs))
	if err := s.ExecBatch(reqs, out); err != nil {
		t.Fatal(err)
	}
	if out[0] == nil || len(out[1].Records) != 1 {
		t.Fatalf("batch results %v, want an insert and a one-record retrieve", out)
	}

	bad := []*abdl.Request{
		abdl.NewRetrieve(fileQuery("person"), abdl.AllAttrs),
		abdl.NewDelete(abdm.Query{}), // invalid: DELETE requires a query
	}
	out = make([]*Result, len(bad))
	err := s.ExecBatch(bad, out)
	if err == nil {
		t.Fatal("batch with invalid request succeeded")
	}
	if out[0] == nil || out[1] != nil {
		t.Fatalf("failed batch results %v, want the first request's only", out)
	}
	if _, want := s.Exec(bad[1]); err.Error() != want.Error() {
		t.Fatalf("batch error %q, want the request's own %q", err, want)
	}
}
