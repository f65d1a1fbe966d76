package kdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/pager"
)

func backedStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.pgf")
	s, err := CreateBacked(path, testDir(t), WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func scanBackingIDs(t *testing.T, s *Store) map[abdm.RecordID]*abdm.Record {
	t.Helper()
	out := make(map[abdm.RecordID]*abdm.Record)
	if err := s.ScanBacking(func(id abdm.RecordID, rec *abdm.Record) error {
		out[id] = rec
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecordCodecRoundTrip: every value kind plus the free-text body
// survives the heap cell codec.
func TestRecordCodecRoundTrip(t *testing.T) {
	rec := abdm.NewRecord("course",
		abdm.Keyword{Attr: "title", Val: abdm.String("Systèmes répartis")},
		abdm.Keyword{Attr: "credits", Val: abdm.Int(-42)},
		abdm.Keyword{Attr: "rating", Val: abdm.Float(3.25)},
		abdm.Keyword{Attr: "dept", Val: abdm.Null()},
	)
	rec.Text = "a body with\nnewlines and ünïcode"
	id, got, err := decodeRecord(encodeRecord(99, rec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 {
		t.Fatalf("id = %d, want 99", id)
	}
	if got.Text != rec.Text {
		t.Fatalf("text = %q, want %q", got.Text, rec.Text)
	}
	if len(got.Keywords) != len(rec.Keywords) {
		t.Fatalf("keywords = %d, want %d", len(got.Keywords), len(rec.Keywords))
	}
	for i, kw := range rec.Keywords {
		g := got.Keywords[i]
		if g.Attr != kw.Attr || g.Val.Kind() != kw.Val.Kind() {
			t.Fatalf("keyword %d = %+v, want %+v", i, g, kw)
		}
	}
	if v, _ := got.Get("credits"); v.AsInt() != -42 {
		t.Fatalf("credits = %d", v.AsInt())
	}
	if v, _ := got.Get("rating"); v.AsFloat() != 3.25 {
		t.Fatalf("rating = %v", v.AsFloat())
	}
	if _, _, err := decodeRecord([]byte{0x05}, nil); err == nil {
		t.Fatal("truncated cell decoded without error")
	}
}

// TestBackedWriteThrough: immediately-stamped mutations (TxnID 0) reach the
// page image as they commit — inserts, updates and deletes alike.
func TestBackedWriteThrough(t *testing.T) {
	s, _ := backedStore(t)
	loadCourses(t, s, 10)
	if got := scanBackingIDs(t, s); len(got) != 10 {
		t.Fatalf("backing holds %d records, want 10", len(got))
	}
	upd := abdl.NewUpdate(courseQuery("Course 003"), abdl.Modifier{Attr: "credits", Val: abdm.Int(99)})
	if _, err := s.Exec(upd); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(abdl.NewDelete(courseQuery("Course 004"))); err != nil {
		t.Fatal(err)
	}
	got := scanBackingIDs(t, s)
	if len(got) != 9 {
		t.Fatalf("backing holds %d records after delete, want 9", len(got))
	}
	found := false
	for _, rec := range got {
		if v, _ := rec.Get("title"); v.AsString() == "Course 003" {
			found = true
			if c, _ := rec.Get("credits"); c.AsInt() != 99 {
				t.Fatalf("updated credits = %d in backing, want 99", c.AsInt())
			}
		}
		if v, _ := rec.Get("title"); v.AsString() == "Course 004" {
			t.Fatal("deleted record still in backing")
		}
	}
	if !found {
		t.Fatal("updated record missing from backing")
	}
}

// TestBackedPendingStaysOut: a version pending under a transaction must not
// reach the image until MVCC-COMMIT stamps it; an aborted transaction's
// writes never reach it.
func TestBackedPendingStaysOut(t *testing.T) {
	s, _ := backedStore(t)
	ins := abdl.NewInsert(courseRec("Pending", 1))
	ins.TxnID = 7
	if _, err := s.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if got := scanBackingIDs(t, s); len(got) != 0 {
		t.Fatalf("pending write reached the backing: %d records", len(got))
	}
	mvccOp(t, s, &abdl.Request{Kind: abdl.MvccCommit, TxnID: 7, MvccEpoch: 5})
	got := scanBackingIDs(t, s)
	if len(got) != 1 {
		t.Fatalf("stamped write missing from backing: %d records", len(got))
	}

	ins2 := abdl.NewInsert(courseRec("Doomed", 2))
	ins2.TxnID = 8
	if _, err := s.Exec(ins2); err != nil {
		t.Fatal(err)
	}
	mvccOp(t, s, &abdl.Request{Kind: abdl.MvccAbort, TxnID: 8})
	if got := scanBackingIDs(t, s); len(got) != 1 {
		t.Fatalf("aborted write reached the backing: %d records", len(got))
	}
}

// TestCheckpointFence: between CheckpointBegin and CheckpointRelease,
// write-throughs are deferred — the flushed image holds exactly the state
// fenced at Begin — and they drain into the working generation afterwards.
func TestCheckpointFence(t *testing.T) {
	s, path := backedStore(t)
	loadCourses(t, s, 5)
	epoch, err := s.CheckpointBegin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointBegin(); !errors.Is(err, ErrCheckpointActive) {
		t.Fatalf("double begin = %v, want ErrCheckpointActive", err)
	}
	// Commits while the fence is up: deferred, not in the image.
	loadCourses(t, s, 3)
	if err := commitCheckpoint(s, pager.Meta{Epoch: epoch, Entries: 5, MaxKey: 5}); err != nil {
		t.Fatal(err)
	}
	// The fence lifted: the deferred writes drained into the working
	// generation.
	if got := scanBackingIDs(t, s); len(got) != 8 {
		t.Fatalf("working generation holds %d records, want 8", len(got))
	}
	if err := s.CloseBacking(); err != nil {
		t.Fatal(err)
	}
	// The durable generation holds only the fenced state.
	s2, meta, err := OpenBacked(path, testDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseBacking()
	if meta.Entries != 5 || meta.MaxKey != 5 {
		t.Fatalf("meta = %+v, want Entries 5 MaxKey 5", meta)
	}
	if s2.Len() != 5 {
		t.Fatalf("restored store holds %d records, want 5", s2.Len())
	}
}

// TestCheckpointAbort drains deferred writes without committing them.
func TestCheckpointAbort(t *testing.T) {
	s, _ := backedStore(t)
	if _, err := s.CheckpointBegin(); err != nil {
		t.Fatal(err)
	}
	loadCourses(t, s, 2)
	s.CheckpointAbort()
	if got := scanBackingIDs(t, s); len(got) != 2 {
		t.Fatalf("deferred writes not drained after abort: %d records", len(got))
	}
	plain := NewStore(testDir(t))
	if _, err := plain.CheckpointBegin(); !errors.Is(err, ErrNoBacking) {
		t.Fatalf("checkpoint on plain store = %v, want ErrNoBacking", err)
	}
}

// TestOpenBackedRestoresStore: a checkpointed image reopens with live maps,
// indexes, version chains at the image epoch, and an allocator seeded past
// every restored id.
func TestOpenBackedRestoresStore(t *testing.T) {
	s, path := backedStore(t)
	loadCourses(t, s, 20)
	if err := s.checkpoint(t, pager.Meta{Epoch: 9, Entries: 20, MaxKey: 20}); err != nil {
		t.Fatal(err)
	}
	s.CloseBacking()

	s2, meta, err := OpenBacked(path, testDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseBacking()
	if meta.Epoch != 9 {
		t.Fatalf("meta epoch = %d, want 9", meta.Epoch)
	}
	if s2.Len() != 20 {
		t.Fatalf("restored %d records, want 20", s2.Len())
	}
	// Indexes rebuilt: an indexed retrieve matches.
	res := retrieveAll(t, s2, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if len(res.Records) != 7 {
		t.Fatalf("restored CS courses = %d, want 7", len(res.Records))
	}
	// Snapshots at the image epoch see the restored base state even though
	// no version chain is materialised: the membership pass pages it in.
	if res := snapRetrieve(t, s2, courseQuery("Course 001"), 9); len(res.Records) != 1 {
		t.Fatalf("snapshot at image epoch sees %d records, want 1", len(res.Records))
	}
	versions, epoch := s2.VersionStats()
	if versions != 0 || epoch != 9 {
		t.Fatalf("VersionStats = (%d, %d), want (0, 9): chains are lazy now", versions, epoch)
	}
	// Allocator seeded past the image: a fresh insert cannot collide.
	id, err := s2.Insert(courseRec("Fresh", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id <= 20 {
		t.Fatalf("fresh insert got id %d inside the restored key space", id)
	}
}

// checkpoint is a test helper running one whole checkpoint: Begin, Flush,
// Release.
func (s *Store) checkpoint(t *testing.T, meta pager.Meta) error {
	t.Helper()
	if _, err := s.CheckpointBegin(); err != nil {
		return err
	}
	return commitCheckpoint(s, meta)
}

// commitCheckpoint flushes and releases a fenced store, reporting the
// flush's error first.
func commitCheckpoint(s *Store, meta pager.Meta) error {
	err := s.CheckpointFlush(meta)
	if rerr := s.CheckpointRelease(); err == nil {
		err = rerr
	}
	return err
}

// TestBackedImportAndDrop: migration imports write the newest committed
// version through to the image; drops remove the record from it.
func TestBackedImportAndDrop(t *testing.T) {
	s, _ := backedStore(t)
	rec := courseRec("Imported", 3)
	mig := []MigRecord{{
		File: "course", ID: 41, Live: rec,
		Chain: []MigVersion{
			{Epoch: 2, Rec: courseRec("Imported", 1)},
			{Epoch: 5, Rec: rec},
			{Epoch: 0, Txn: 77, Rec: courseRec("Imported", 9)}, // pending: must not land
		},
	}}
	if n, err := s.ImportPartition(mig); err != nil || n != 1 {
		t.Fatalf("imported %d (err %v), want 1", n, err)
	}
	got := scanBackingIDs(t, s)
	if len(got) != 1 {
		t.Fatalf("backing holds %d records, want 1", len(got))
	}
	if v, _ := got[41].Get("credits"); v.AsInt() != 3 {
		t.Fatalf("backing holds credits %d, want the newest committed 3", v.AsInt())
	}
	if n, err := s.DropRecords([]abdm.RecordID{41}); err != nil || n != 1 {
		t.Fatalf("dropped %d (err %v), want 1", n, err)
	}
	if got := scanBackingIDs(t, s); len(got) != 0 {
		t.Fatalf("dropped record still in backing: %d records", len(got))
	}
}

// TestBackedTombstoneImport: importing a record whose newest committed
// version is a tombstone must erase it from the image.
func TestBackedTombstoneImport(t *testing.T) {
	s, _ := backedStore(t)
	loadCourses(t, s, 1)
	ids := scanBackingIDs(t, s)
	if len(ids) != 1 {
		t.Fatalf("seed record missing")
	}
	var id abdm.RecordID
	for k := range ids {
		id = k
	}
	mig := []MigRecord{{
		File: "course", ID: id, Live: nil,
		Chain: []MigVersion{
			{Epoch: 2, Rec: courseRec("Course 000", 1)},
			{Epoch: 6, Rec: nil}, // tombstone
		},
	}}
	if n, err := s.ImportPartition(mig); err != nil || n != 1 {
		t.Fatalf("imported %d (err %v), want 1", n, err)
	}
	if got := scanBackingIDs(t, s); len(got) != 0 {
		t.Fatalf("tombstoned record still in backing: %d records", len(got))
	}
}

// TestBackingStats: pool counters and page counts are visible, and a pool
// smaller than the dataset evicts and writes back.
func TestBackingStats(t *testing.T) {
	s, _ := backedStore(t) // 8-frame pool
	for i := 0; i < 200; i++ {
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("Bulk %04d", i))},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(i))},
		)
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	stats, pages, ok := s.BackingStats()
	if !ok {
		t.Fatal("BackingStats reported no backing")
	}
	if pages < 10 {
		t.Fatalf("heap has %d pages, expected well over the 8-frame pool", pages)
	}
	if stats.Evictions == 0 || stats.Writebacks == 0 {
		t.Fatalf("pool stats %+v: expected evictions and writebacks", stats)
	}
	if got := scanBackingIDs(t, s); len(got) != 200 {
		t.Fatalf("backing holds %d records, want 200 (eviction lost data?)", len(got))
	}
	if _, _, ok := NewStore(testDir(t)).BackingStats(); ok {
		t.Fatal("plain store claims a backing")
	}
}

// TestBackedIndexEqBatchesByPage: an index-eq lookup over 200 non-resident
// rows, packed a few to a heap page, pins each distinct page once — not once
// per row — and returns the same Result as the in-memory store.
func TestBackedIndexEqBatchesByPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cold.pgf")
	backed, err := CreateBacked(path, testDir(t), WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer backed.CloseBacking()
	mem := NewStore(testDir(t))
	loadCourses(t, backed, 600)
	loadCourses(t, mem, 600)
	if n := backed.ResidentRecords(); n != 0 {
		t.Fatalf("%d bodies resident after committed inserts, want 0", n)
	}
	q := abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")})
	want := retrieveAll(t, mem, q)
	pages := make(map[uint32]bool)
	for _, sr := range want.Records {
		pages[backed.backing.rids[sr.ID].Page] = true
	}
	if len(want.Records) != 200 || len(pages) >= len(want.Records) {
		t.Fatalf("%d rows on %d pages: the test needs 200 rows sharing pages", len(want.Records), len(pages))
	}

	before, _, _ := backed.BackingStats()
	got := retrieveAll(t, backed, q)
	after, _, _ := backed.BackingStats()
	if pins := (after.Hits + after.Misses) - (before.Hits + before.Misses); pins != uint64(len(pages)) {
		t.Fatalf("%d pool pins for 200 rows on %d distinct pages, want one per page", pins, len(pages))
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("backed store returned %d rows, memory store %d", len(got.Records), len(want.Records))
	}
	for i, sr := range got.Records {
		if sr.ID != want.Records[i].ID || !sr.Rec.Equal(want.Records[i].Rec) {
			t.Fatalf("row %d: backed %d %v, memory %d %v", i, sr.ID, sr.Rec, want.Records[i].ID, want.Records[i].Rec)
		}
	}
	if fmt.Sprint(got.Paths, got.Cost) != fmt.Sprint(want.Paths, want.Cost) {
		t.Fatalf("backed paths/cost %v %+v, memory %v %+v", got.Paths, got.Cost, want.Paths, want.Cost)
	}
}

// TestBackedPointReadAllocs: paging one record in decodes it straight from
// its pinned frame, so it allocates no more than copying the cell out with
// Heap.Get and decoding the copy did.
func TestBackedPointReadAllocs(t *testing.T) {
	s, _ := backedStore(t)
	loadCourses(t, s, 20)
	const id = 7
	rid := s.backing.rids[id]
	viaGet := testing.AllocsPerRun(100, func() {
		cell, err := s.backing.heap.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeRecord(cell, nil); err != nil {
			t.Fatal(err)
		}
	})
	inPlace := testing.AllocsPerRun(100, func() {
		if _, err := s.fetchLocked(id); err != nil {
			t.Fatal(err)
		}
	})
	if inPlace > viaGet {
		t.Fatalf("point read allocates %.0f times, copy-and-decode %.0f", inPlace, viaGet)
	}
}

// TestBackedPoolExhaustedSurfaces: when every frame of a backed store's pool
// is pinned, a read that needs another page fails with an error that
// errors.Is matches to pager.ErrPoolExhausted through kdb's wrapping, and
// succeeds again once the frames are released.
func TestBackedPoolExhaustedSurfaces(t *testing.T) {
	s, _ := backedStore(t) // 8 frames of 512 bytes
	loadCourses(t, s, 200)
	pool := s.backing.pool
	var held []uint32
	for id := uint32(0); len(held) < pool.Cap(); id++ {
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		held = append(held, id)
	}
	title := ""
	for id, rid := range s.backing.rids {
		if rid.Page >= uint32(len(held)) {
			title = fmt.Sprintf("Course %03d", id-1)
			break
		}
	}
	if title == "" {
		t.Fatal("every record sits on a held page")
	}
	_, err := s.Exec(abdl.NewRetrieve(courseQuery(title), abdl.AllAttrs))
	if !errors.Is(err, pager.ErrPoolExhausted) {
		t.Fatalf("read with every frame pinned = %v, want ErrPoolExhausted", err)
	}
	for _, id := range held {
		pool.Unpin(id, false)
	}
	if res := retrieveAll(t, s, courseQuery(title)); len(res.Records) != 1 {
		t.Fatalf("after unpinning: %d rows for %q, want 1", len(res.Records), title)
	}
	if st, _, _ := s.BackingStats(); st.Resident > pool.Cap() {
		t.Fatalf("%d frames resident, cap %d", st.Resident, pool.Cap())
	}
}

// TestBackedScanWhileNamesGrow runs ScanBacking, which decodes outside the
// store lock, while writes keep bringing attribute names the interning
// table has not seen, so each write-through publishes a new table. Under
// -race this checks the table's copy-on-write publication; every decoded
// row must still carry its own attribute names.
func TestBackedScanWhileNamesGrow(t *testing.T) {
	dir := testDir(t)
	s, err := CreateBacked(filepath.Join(t.TempDir(), "names.pgf"), dir, WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseBacking()
	loadCourses(t, s, 20)
	done := make(chan struct{})
	scanErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				scanErr <- nil
				return
			default:
			}
			err := s.ScanBacking(func(id abdm.RecordID, rec *abdm.Record) error {
				for _, kw := range rec.Keywords {
					if strings.HasPrefix(kw.Attr, "tag") && kw.Val.AsString() != kw.Attr {
						return fmt.Errorf("record %d: %s = %v", id, kw.Attr, kw.Val)
					}
				}
				return nil
			})
			if err != nil {
				scanErr <- err
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		attr := fmt.Sprintf("tag%02d", i)
		if err := dir.DefineAttr(attr, abdm.KindString); err != nil {
			t.Fatal(err)
		}
		rec := courseRec(fmt.Sprintf("Tagged %02d", i), 1)
		rec.Set(attr, abdm.String(attr))
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-scanErr; err != nil {
		t.Fatal(err)
	}
	if got := scanBackingIDs(t, s); len(got) != 70 {
		t.Fatalf("backing holds %d records, want 70", len(got))
	}
}
