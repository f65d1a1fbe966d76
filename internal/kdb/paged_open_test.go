package kdb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// fatCourse is a course record with a large free-text body, so the heap's
// size is dominated by record bodies the index image never carries.
func fatCourse(i int) *abdm.Record {
	rec := abdm.NewRecord("course",
		abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("Course %03d", i))},
		abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "Math", "Physics"}[i%3])},
		abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(1 + i%5))},
	)
	rec.Text = strings.Repeat("course syllabus text ", 15)
	return rec
}

// TestOpenBackedReopenCostIndexPages is the regression test for the old
// open-by-full-scan behaviour: reopening an N-record store from a
// checkpointed image must read O(index pages), not O(heap pages). The
// records carry fat bodies so the heap dwarfs the image; an open that
// touches even half the file's pages is a rescan and fails.
func TestOpenBackedReopenCostIndexPages(t *testing.T) {
	const n = 400
	path := filepath.Join(t.TempDir(), "part.pgf")
	s, err := CreateBacked(path, testDir(t), WithPageSize(512), WithPoolPages(16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Insert(fatCourse(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.checkpoint(t, pager.Meta{Epoch: 2, Entries: n, MaxKey: n}); err != nil {
		t.Fatal(err)
	}
	s.CloseBacking()

	s2, meta, err := OpenBacked(path, testDir(t), WithPageSize(512), WithPoolPages(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseBacking()
	if !meta.HasIndex {
		t.Fatal("checkpoint committed no index image")
	}
	stats, pages, _ := s2.BackingStats()
	reads := stats.Misses + stats.Hits
	if pages < 4*16 {
		t.Fatalf("dataset too small to prove anything: %d pages", pages)
	}
	if reads*2 >= uint64(pages) {
		t.Fatalf("open read %d of %d pages — that is a heap rescan, not an image restore", reads, pages)
	}
	if s2.Len() != n {
		t.Fatalf("restored %d records, want %d", s2.Len(), n)
	}
	if got := s2.ResidentRecords(); got != 0 {
		t.Fatalf("open materialised %d record bodies; demand paging should load none", got)
	}
	// The restored index answers without scanning: dept=CS matches a third.
	res := retrieveAll(t, s2, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if len(res.Records) != (n+2)/3 {
		t.Fatalf("restored CS courses = %d, want %d", len(res.Records), (n+2)/3)
	}
}

// TestOpenBackedImagelessGeneration: a generation committed without a
// persisted index image mounts only when its heap is empty — the generation a
// never-checkpointed CreateBacked file holds. One whose heap holds pages is
// refused with ErrNoIndexImage rather than rebuilt by a heap scan.
func TestOpenBackedImagelessGeneration(t *testing.T) {
	const n = 30
	dir := t.TempDir()

	// Written through but never checkpointed: reopens as an empty store.
	fresh := filepath.Join(dir, "fresh.pgf")
	s, err := CreateBacked(fresh, testDir(t), WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	loadCourses(t, s, n)
	s.CloseBacking()
	s2, meta, err := OpenBacked(fresh, testDir(t), WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	if meta.HasIndex || s2.Len() != 0 {
		t.Fatalf("never-checkpointed file reopened with %d records (meta %+v), want an empty store", s2.Len(), meta)
	}
	if _, err := s2.Insert(courseRec("Fresh", 1)); err != nil {
		t.Fatalf("insert into the reopened empty store: %v", err)
	}
	s2.CloseBacking()

	// A heap committed by hand with no image: refused.
	bare := filepath.Join(dir, "bare.pgf")
	s, err = CreateBacked(bare, testDir(t), WithPageSize(512), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	loadCourses(t, s, n)
	if err := s.backing.heap.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.backing.file.Commit(pager.Meta{Epoch: 3, Entries: n, MaxKey: n}); err != nil {
		t.Fatal(err)
	}
	s.CloseBacking()
	if _, _, err := OpenBacked(bare, testDir(t), WithPageSize(512), WithPoolPages(8)); !errors.Is(err, ErrNoIndexImage) {
		t.Fatalf("imageless heap opened with err = %v, want ErrNoIndexImage", err)
	}
}
