package kdb

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// pruneFullLocked is the oracle for pruneLocked: the sweep that walks every
// version chain in the store, as MVCC-GC did before the work set existed.
func (s *Store) pruneFullLocked(watermark uint64) (int, []abdm.RecordID) {
	pruned := 0
	var removed []abdm.RecordID
	for file, chains := range s.mvcc.chains {
		for id, chain := range chains {
			keep := 0
			found := false
			for i, v := range chain {
				if v.epoch != 0 && v.epoch <= watermark {
					keep, found = i, true
				}
			}
			if !found {
				continue
			}
			if keep == len(chain)-1 && chain[keep].rec == nil {
				pruned += len(chain)
				removed = append(removed, id)
				s.setChainLocked(file, id, nil)
				continue
			}
			if keep > 0 {
				pruned += keep
				s.setChainLocked(file, id, append([]version(nil), chain[keep:]...))
			}
		}
	}
	s.mvcc.versions -= pruned
	return pruned, removed
}

// checkWorkSet fails unless the store's GC work set holds exactly the
// prunable chains.
func checkWorkSet(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for file, chains := range s.mvcc.chains {
		for id, chain := range chains {
			_, in := s.mvcc.work[chainRef{file, id}]
			if in != prunable(chain) {
				t.Fatalf("chain %s/%d (%d versions): in work set %v, prunable %v", file, id, len(chain), in, prunable(chain))
			}
			if in {
				n++
			}
		}
	}
	if n != len(s.mvcc.work) {
		t.Fatalf("work set holds %d chains, %d of the store's chains are prunable", len(s.mvcc.work), n)
	}
}

// mvccSchedule drives random insert/update/delete/stamp/abort/drop steps
// against a set of stores, applying each step to all of them in the same
// order.
type mvccSchedule struct {
	rng    *rand.Rand
	stores []*Store
	epoch  uint64 // newest commit epoch handed out
	open   []uint64
	next   uint64
}

func (m *mvccSchedule) exec(t *testing.T, req func() *abdl.Request) {
	t.Helper()
	for _, s := range m.stores {
		if _, err := s.Exec(req()); err != nil {
			t.Fatal(err)
		}
	}
}

// txn picks an open transaction, opens a new one, or returns 0 for an
// immediately-stamped write.
func (m *mvccSchedule) txn() uint64 {
	switch r := m.rng.Intn(4); {
	case r == 0:
		return 0
	case r == 1 || len(m.open) == 0:
		m.next++
		m.open = append(m.open, m.next)
		return m.next
	default:
		return m.open[m.rng.Intn(len(m.open))]
	}
}

// endTxn removes and returns a random open transaction (0 when none).
func (m *mvccSchedule) endTxn() uint64 {
	if len(m.open) == 0 {
		return 0
	}
	i := m.rng.Intn(len(m.open))
	txn := m.open[i]
	m.open = slices.Delete(m.open, i, i+1)
	return txn
}

var schedDepts = []string{"CS", "EE", "ME"}

func (m *mvccSchedule) record() *abdm.Record {
	return abdm.NewRecord("course",
		abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("T%d", m.rng.Intn(12)))},
		abdm.Keyword{Attr: "dept", Val: abdm.String(schedDepts[m.rng.Intn(len(schedDepts))])},
		abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(m.rng.Intn(5)))},
		abdm.Keyword{Attr: "rating", Val: abdm.Float(float64(m.rng.Intn(6)) / 2)},
	)
}

// step runs one random data or MVCC step; it reports false for a GC step,
// which the caller performs.
func (m *mvccSchedule) step(t *testing.T) bool {
	t.Helper()
	title := abdm.String(fmt.Sprintf("T%d", m.rng.Intn(12)))
	byTitle := courseQuery(title.AsString())
	switch r := m.rng.Intn(20); {
	case r < 5:
		rec, txn := m.record(), m.txn()
		m.exec(t, func() *abdl.Request { req := abdl.NewInsert(rec); req.TxnID = txn; return req })
	case r < 10:
		mod := abdl.Modifier{Attr: "credits", Val: abdm.Int(int64(m.rng.Intn(5)))}
		if m.rng.Intn(3) == 0 {
			mod = abdl.Modifier{Attr: "dept", Val: abdm.String(schedDepts[m.rng.Intn(len(schedDepts))])}
		}
		txn := m.txn()
		m.exec(t, func() *abdl.Request { req := abdl.NewUpdate(byTitle, mod); req.TxnID = txn; return req })
	case r < 12:
		txn := m.txn()
		m.exec(t, func() *abdl.Request { req := abdl.NewDelete(byTitle); req.TxnID = txn; return req })
	case r < 15:
		if txn := m.endTxn(); txn != 0 {
			m.epoch++
			epoch := m.epoch
			m.exec(t, func() *abdl.Request { return &abdl.Request{Kind: abdl.MvccCommit, TxnID: txn, MvccEpoch: epoch} })
		}
	case r < 17:
		if txn := m.endTxn(); txn != 0 {
			m.exec(t, func() *abdl.Request { return &abdl.Request{Kind: abdl.MvccAbort, TxnID: txn} })
		}
	case r < 18:
		id := abdm.RecordID(1 + m.rng.Intn(int(m.next)+8))
		for _, s := range m.stores {
			if _, err := s.DropRecords([]abdm.RecordID{id}); err != nil {
				t.Fatal(err)
			}
		}
	default:
		return false
	}
	return true
}

// TestMVCCWorkSetGCMatchesFullWalk: over random insert/update/delete/stamp/
// abort/drop/GC schedules at random watermarks, the work-set sweep prunes the
// same number of versions, removes the same keys and leaves the same chains
// as the full walk, and the work set stays exactly the prunable chains.
func TestMVCCWorkSetGCMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		work, full := NewStore(testDir(t)), NewStore(testDir(t))
		m := &mvccSchedule{rng: rand.New(rand.NewSource(seed)), stores: []*Store{work, full}, epoch: 1}
		gcs := 0
		for i := 0; i < 400; i++ {
			if m.step(t) {
				checkWorkSet(t, work)
				continue
			}
			gcs++
			watermark := 1 + uint64(m.rng.Int63n(int64(m.epoch)))
			res, err := work.Exec(&abdl.Request{Kind: abdl.MvccGC, MvccEpoch: watermark})
			if err != nil {
				t.Fatal(err)
			}
			full.mu.Lock()
			n, removed := full.pruneFullLocked(watermark)
			full.mu.Unlock()
			if res.Count != n {
				t.Fatalf("seed %d step %d: work-set GC pruned %d versions, full walk %d", seed, i, res.Count, n)
			}
			slices.Sort(removed)
			got := slices.Clone(res.Affected)
			slices.Sort(got)
			if !slices.Equal(got, removed) {
				t.Fatalf("seed %d step %d: work-set GC removed %v, full walk %v", seed, i, got, removed)
			}
			if !reflect.DeepEqual(work.mvcc.chains, full.mvcc.chains) {
				t.Fatalf("seed %d step %d: chains differ after GC at %d", seed, i, watermark)
			}
			if wv, _ := work.VersionStats(); wv != full.mvcc.versions {
				t.Fatalf("seed %d step %d: version gauge %d, full walk %d", seed, i, wv, full.mvcc.versions)
			}
			checkWorkSet(t, work)
		}
		if gcs == 0 {
			t.Fatalf("seed %d: schedule ran no GC", seed)
		}
	}
}

// indexFromScan rebuilds the per-attribute indexes of a backed store from
// its heap, the ground truth the committed index must match.
func indexFromScan(t *testing.T, s *Store) map[string]map[ikey][]abdm.RecordID {
	t.Helper()
	out := make(map[string]map[ikey][]abdm.RecordID)
	if err := s.ScanBacking(func(id abdm.RecordID, rec *abdm.Record) error {
		for _, kw := range rec.Keywords {
			if out[kw.Attr] == nil {
				out[kw.Attr] = make(map[ikey][]abdm.RecordID)
			}
			k := keyOf(kw.Val)
			out[kw.Attr][k] = append(out[kw.Attr][k], id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, post := range out {
		for k := range post {
			slices.Sort(post[k])
		}
	}
	return out
}

// postingsOf flattens an index set, dropping attributes with no entries.
func postingsOf(ixs map[string]*attrIndex) map[string]map[ikey][]abdm.RecordID {
	out := make(map[string]map[ikey][]abdm.RecordID)
	for a, ix := range ixs {
		if len(ix.postings) > 0 {
			out[a] = ix.postings
		}
	}
	return out
}

func samePostings(a, b map[string]map[ikey][]abdm.RecordID) bool {
	return maps.EqualFunc(a, b, func(x, y map[ikey][]abdm.RecordID) bool {
		return maps.EqualFunc(x, y, slices.Equal[[]abdm.RecordID])
	})
}

// TestBackedCommittedIndexMatchesHeap: after random write/stamp/abort/GC
// schedules with checkpoints — including commits whose write-throughs queue
// behind a checkpoint fence and drain at release — the committed index a
// backed store maintains by diffing equals the index rebuilt from its heap,
// and a reopen restores that index from the image.
func TestBackedCommittedIndexMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		path := filepath.Join(t.TempDir(), "idx.pgf")
		s, err := CreateBacked(path, testDir(t), WithPageSize(512), WithPoolPages(8))
		if err != nil {
			t.Fatal(err)
		}
		m := &mvccSchedule{rng: rand.New(rand.NewSource(seed)), stores: []*Store{s}, epoch: 1}
		check := func(i int) {
			t.Helper()
			s.mu.RLock()
			committed := postingsOf(s.backing.cIndexes)
			s.mu.RUnlock()
			if want := indexFromScan(t, s); !samePostings(committed, want) {
				t.Fatalf("seed %d step %d: committed index\n%v\nheap\n%v", seed, i, committed, want)
			}
		}
		fenced := false
		for i := 0; i < 300; i++ {
			switch r := m.rng.Intn(30); {
			case r == 0 && !fenced:
				if _, err := s.CheckpointBegin(); err != nil {
					t.Fatal(err)
				}
				fenced = true
			case r <= 1 && fenced:
				if err := s.CheckpointFlush(pager.Meta{Epoch: m.epoch}); err != nil {
					t.Fatal(err)
				}
				s.CheckpointRelease()
				fenced = false
			case r == 2:
				watermark := 1 + uint64(m.rng.Int63n(int64(m.epoch)))
				m.exec(t, func() *abdl.Request { return &abdl.Request{Kind: abdl.MvccGC, MvccEpoch: watermark} })
			default:
				m.step(t)
			}
			check(i)
		}
		if fenced {
			s.CheckpointRelease()
		}
		for len(m.open) > 0 {
			txn := m.endTxn()
			m.epoch++
			epoch := m.epoch
			m.exec(t, func() *abdl.Request { return &abdl.Request{Kind: abdl.MvccCommit, TxnID: txn, MvccEpoch: epoch} })
		}
		check(-1)
		if err := s.checkpoint(t, pager.Meta{Epoch: m.epoch}); err != nil {
			t.Fatal(err)
		}
		want := indexFromScan(t, s)
		if err := s.CloseBacking(); err != nil {
			t.Fatal(err)
		}
		s2, _, err := OpenBacked(path, testDir(t))
		if err != nil {
			t.Fatal(err)
		}
		if got := postingsOf(s2.backing.cIndexes); !samePostings(got, want) {
			t.Fatalf("seed %d: reopened committed index differs from the heap", seed)
		}
		if got := postingsOf(s2.indexes); !samePostings(got, want) {
			t.Fatalf("seed %d: reopened live index differs from the heap", seed)
		}
		s2.CloseBacking()
	}
}
