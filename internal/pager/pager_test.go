package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func newFile(t *testing.T, pageSize int) *File {
	t.Helper()
	f, err := Create(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestPageInsertDeleteCompact(t *testing.T) {
	p := make(page, MinPageSize)
	initPage(p)
	var slots []int
	for i := 0; ; i++ {
		s, ok := p.insert([]byte(fmt.Sprintf("rec-%02d", i)))
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 5 {
		t.Fatalf("only %d records fit in a %d-byte page", len(slots), MinPageSize)
	}
	// Delete every other record, then fill the reclaimed space: insert must
	// compact and reuse dead slots.
	freed := 0
	for i := 0; i < len(slots); i += 2 {
		if !p.del(slots[i]) {
			t.Fatalf("del slot %d failed", slots[i])
		}
		freed++
	}
	if p.dead() == 0 {
		t.Fatal("expected dead bytes after deletes")
	}
	refilled := 0
	for ; ; refilled++ {
		if _, ok := p.insert([]byte("fill-xx")); !ok {
			break
		}
	}
	if refilled < freed-1 {
		t.Fatalf("refilled only %d cells after freeing %d", refilled, freed)
	}
	// Survivors are intact after compaction.
	for i := 1; i < len(slots); i += 2 {
		want := fmt.Sprintf("rec-%02d", i)
		if got := p.cell(slots[i]); string(got) != want {
			t.Fatalf("slot %d = %q, want %q", slots[i], got, want)
		}
	}
	if p.del(999) {
		t.Fatal("del of out-of-range slot succeeded")
	}
	if p.cell(999) != nil {
		t.Fatal("cell of out-of-range slot returned data")
	}
}

func TestFileCommitAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	buf := make([]byte, MinPageSize)
	for i := 0; i < 5; i++ {
		id := f.Alloc()
		initPage(buf)
		page(buf).insert([]byte(fmt.Sprintf("page-%d", i)))
		if err := f.WritePage(id, buf); err != nil {
			t.Fatalf("WritePage %d: %v", id, err)
		}
	}
	meta := Meta{Epoch: 7, Entries: 42, MaxKey: 99, NextID: 12}
	if err := f.Commit(meta); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	f.Close()

	g, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if g.Meta() != meta {
		t.Fatalf("Meta = %+v, want %+v", g.Meta(), meta)
	}
	if g.Pages() != 5 {
		t.Fatalf("Pages = %d, want 5", g.Pages())
	}
	for i := 0; i < 5; i++ {
		if err := g.ReadPage(uint32(i), buf); err != nil {
			t.Fatalf("ReadPage %d: %v", i, err)
		}
		want := fmt.Sprintf("page-%d", i)
		if got := page(buf).cell(0); string(got) != want {
			t.Fatalf("page %d cell = %q, want %q", i, got, want)
		}
	}
}

// TestFileCrashKeepsPreviousGeneration overwrites pages and then corrupts
// the newest superblock: Open must mount the previous generation intact.
func TestFileCrashKeepsPreviousGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	buf := make([]byte, MinPageSize)
	id := f.Alloc()
	initPage(buf)
	page(buf).insert([]byte("generation-1"))
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Entries: 1}); err != nil {
		t.Fatal(err)
	}
	gen1 := f.Generation()
	initPage(buf)
	page(buf).insert([]byte("generation-2"))
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Entries: 2}); err != nil {
		t.Fatal(err)
	}
	gen2 := f.Generation()
	f.Close()

	// Tear the newest superblock (slot gen2%2).
	fd, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteAt([]byte{0xDE, 0xAD}, int64(gen2%2)*MinPageSize+superCRC); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	g, err := Open(path)
	if err != nil {
		t.Fatalf("Open after torn superblock: %v", err)
	}
	defer g.Close()
	if g.Generation() != gen1 {
		t.Fatalf("mounted generation %d, want %d", g.Generation(), gen1)
	}
	if g.Meta().Entries != 1 {
		t.Fatalf("Meta.Entries = %d, want 1", g.Meta().Entries)
	}
	if err := g.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if got := page(buf).cell(0); string(got) != "generation-1" {
		t.Fatalf("cell = %q, want generation-1", got)
	}
}

func TestFileOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x42}, 4*MinPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(garbage) = %v, want ErrCorrupt", err)
	}
}

func TestFileDetectsTornDataPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MinPageSize)
	id := f.Alloc()
	initPage(buf)
	page(buf).insert([]byte("victim"))
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{}); err != nil {
		t.Fatal(err)
	}
	phys := f.work[id]
	f.Close()

	fd, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte mid-cell without fixing the checksum.
	if _, err := fd.WriteAt([]byte{0xFF}, int64(phys)*MinPageSize+pageHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.ReadPage(id, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadPage(torn) = %v, want ErrCorrupt", err)
	}
}

// TestFileSteadyStateSize commits repeatedly with a fixed working set and
// checks the file stops growing: shadow pages and table runs must recycle.
func TestFileSteadyStateSize(t *testing.T) {
	f := newFile(t, MinPageSize)
	buf := make([]byte, MinPageSize)
	const pages = 8
	for i := 0; i < pages; i++ {
		id := f.Alloc()
		initPage(buf)
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(Meta{}); err != nil {
		t.Fatal(err)
	}
	var grown uint32
	for round := 0; round < 20; round++ {
		for id := uint32(0); id < pages; id++ {
			initPage(buf)
			page(buf).insert([]byte(fmt.Sprintf("round-%d", round)))
			if err := f.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit(Meta{Entries: uint64(round)}); err != nil {
			t.Fatal(err)
		}
		if round == 5 {
			grown = f.physEnd
		}
	}
	if f.physEnd > grown {
		t.Fatalf("file kept growing: physEnd %d after warmup, %d after 20 rounds", grown, f.physEnd)
	}
}

func TestPoolEvictionAndWriteback(t *testing.T) {
	f := newFile(t, MinPageSize)
	pool := NewPool(f, 4)
	// Create 16 pages through a 4-frame pool; every page keeps its content.
	var ids []uint32
	for i := 0; i < 16; i++ {
		id, data, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page(data).insert([]byte(fmt.Sprintf("content-%02d", i)))
		pool.Unpin(id, true)
		ids = append(ids, id)
	}
	for i, id := range ids {
		data, err := pool.Pin(id)
		if err != nil {
			t.Fatalf("Pin %d: %v", id, err)
		}
		want := fmt.Sprintf("content-%02d", i)
		if got := page(data).cell(0); string(got) != want {
			t.Fatalf("page %d = %q, want %q", id, got, want)
		}
		pool.Unpin(id, false)
	}
	st := pool.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected evictions and writebacks, got %+v", st)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolExhaustedRefuses pins every frame of a two-frame pool: a further
// Alloc or Pin is refused with ErrPoolExhausted (counted as Overflow), the
// refused Alloc claims no logical page, residency never exceeds the
// capacity, and once a frame is unpinned the pool serves pins again.
func TestPoolExhaustedRefuses(t *testing.T) {
	f := newFile(t, MinPageSize)
	pool := NewPool(f, 2)
	checkCap := func(when string) {
		t.Helper()
		if st := pool.Stats(); st.Resident > pool.Cap() {
			t.Fatalf("%s: %d frames resident, cap %d", when, st.Resident, pool.Cap())
		}
	}
	// Four pages on disk, then a pin held on two of them.
	var ids []uint32
	for i := 0; i < 4; i++ {
		id, data, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page(data).insert([]byte(fmt.Sprintf("page-%d", i)))
		pool.Unpin(id, true)
		ids = append(ids, id)
		checkCap("alloc")
	}
	for _, id := range ids[:2] {
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
	}
	pages := f.Pages()
	if _, _, err := pool.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Alloc with every frame pinned = %v, want ErrPoolExhausted", err)
	}
	if f.Pages() != pages {
		t.Fatalf("refused Alloc claimed a logical page: %d -> %d pages", pages, f.Pages())
	}
	if _, err := pool.Pin(ids[3]); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Pin with every frame pinned = %v, want ErrPoolExhausted", err)
	}
	checkCap("refusals")
	if st := pool.Stats(); st.Overflow != 2 || st.Pinned != 2 {
		t.Fatalf("stats %+v: want Overflow 2 (one per refusal) and 2 pinned", st)
	}
	// A pin of a held page is still a hit.
	if _, err := pool.Pin(ids[0]); err != nil {
		t.Fatalf("re-pin of a resident page refused: %v", err)
	}
	pool.Unpin(ids[0], false)

	pool.Unpin(ids[1], false)
	for i := 2; i < 4; i++ {
		data, err := pool.Pin(ids[i])
		if err != nil {
			t.Fatalf("Pin after an unpin: %v", err)
		}
		if got, want := string(page(data).cell(0)), fmt.Sprintf("page-%d", i); got != want {
			t.Fatalf("page %d = %q, want %q", ids[i], got, want)
		}
		pool.Unpin(ids[i], false)
		checkCap("after unpin")
	}
	pool.Unpin(ids[0], false)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolReadFailureLeavesNoFrame corrupts one page's checksum on disk: its
// pin fails with ErrCorrupt and leaves the page absent from the table (a
// retry is a miss again, not a hit on a half-read frame), residency stays
// within the capacity, and the next pin of a good page is byte-exact.
func TestPoolReadFailureLeavesNoFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(f, 2)
	want := make(map[uint32][]byte)
	for i := 0; i < 6; i++ {
		id, data, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page(data).insert([]byte(fmt.Sprintf("good-%d", i)))
		pool.Unpin(id, true)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MinPageSize)
	for id := uint32(0); id < 6; id++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		want[id] = append([]byte(nil), buf...)
	}
	const bad = 3
	if _, err := f.f.WriteAt([]byte{0xFF}, int64(f.work[bad])*MinPageSize+pageHeaderSize+1); err != nil {
		t.Fatal(err)
	}

	pool = NewPool(f, 2)
	for _, id := range []uint32{0, 1} { // fill both frames, then unpin
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	for try := 0; try < 2; try++ {
		before := pool.Stats()
		if _, err := pool.Pin(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pin of corrupt page = %v, want ErrCorrupt", err)
		}
		after := pool.Stats()
		if after.Hits != before.Hits {
			t.Fatal("retried pin of a corrupt page hit a resident frame")
		}
		if _, ok := pool.frames[bad]; ok {
			t.Fatal("failed read left the page in the frame table")
		}
		if after.Resident > pool.Cap() {
			t.Fatalf("%d frames resident, cap %d", after.Resident, pool.Cap())
		}
	}
	for _, id := range []uint32{4, 5, 2, 0} {
		data, err := pool.Pin(id)
		if err != nil {
			t.Fatalf("pin %d after a failed read: %v", id, err)
		}
		if !bytes.Equal(data, want[id]) {
			t.Fatalf("page %d not byte-exact after a failed read", id)
		}
		pool.Unpin(id, false)
	}
	if st := pool.Stats(); st.Resident > pool.Cap() || pool.nframes > pool.Cap() {
		t.Fatalf("stats %+v, %d frames allocated: cap %d", st, pool.nframes, pool.Cap())
	}
}

func TestHeapPutGetDeleteUpdateScan(t *testing.T) {
	f := newFile(t, MinPageSize)
	h, err := NewHeap(NewPool(f, 8))
	if err != nil {
		t.Fatal(err)
	}
	recs := make(map[RID]string)
	for i := 0; i < 100; i++ {
		body := fmt.Sprintf("record-%03d", i)
		rid, err := h.Put([]byte(body))
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		recs[rid] = body
	}
	for rid, want := range recs {
		got, err := h.Get(rid)
		if err != nil || string(got) != want {
			t.Fatalf("Get(%v) = %q, %v; want %q", rid, got, err, want)
		}
	}
	// Delete a third, update a third.
	i := 0
	for rid := range recs {
		switch i % 3 {
		case 0:
			if err := h.Delete(rid); err != nil {
				t.Fatalf("Delete(%v): %v", rid, err)
			}
			delete(recs, rid)
		case 1:
			nr, err := h.Update(rid, []byte("updated-"+recs[rid]))
			if err != nil {
				t.Fatalf("Update(%v): %v", rid, err)
			}
			body := "updated-" + recs[rid]
			delete(recs, rid)
			recs[nr] = body
		}
		i++
	}
	seen := make(map[RID]string)
	if err := h.Scan(func(rid RID, cell []byte) error {
		seen[rid] = string(cell)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(recs) {
		t.Fatalf("Scan saw %d records, want %d", len(seen), len(recs))
	}
	for rid, want := range recs {
		if seen[rid] != want {
			t.Fatalf("Scan[%v] = %q, want %q", rid, seen[rid], want)
		}
	}
	// Typed errors.
	if _, err := h.Get(RID{Page: 0, Slot: 9999}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(bad slot) = %v, want ErrNotFound", err)
	}
	big := make([]byte, MinPageSize)
	if _, err := h.Put(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put(big) = %v, want ErrTooLarge", err)
	}
}

// TestHeapReopen round-trips a heap through flush/commit/close/open and
// checks the rebuilt free-space map accepts new records into old pages.
func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(NewPool(f, 8))
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 40; i++ {
		rid, err := h.Put([]byte(fmt.Sprintf("persisted-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < 40; i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Entries: 40}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	h2, err := NewHeap(NewPool(g, 8))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := h2.Scan(func(RID, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("reopened heap has %d records, want 20", count)
	}
	for i := 1; i < 40; i += 2 {
		got, err := h2.Get(rids[i])
		if err != nil || string(got) != fmt.Sprintf("persisted-%02d", i) {
			t.Fatalf("Get(%v) = %q, %v", rids[i], got, err)
		}
	}
	before := g.Pages()
	// The deleted half left holes; new records must reuse them without
	// allocating fresh pages.
	for i := 0; i < 10; i++ {
		if _, err := h2.Put([]byte("reused-slot")); err != nil {
			t.Fatal(err)
		}
	}
	if g.Pages() > before+1 {
		t.Fatalf("free-space map not rebuilt: pages grew %d -> %d", before, g.Pages())
	}
}

// TestFileTruncatedAtEveryPage chops the file after a commit at every page
// boundary and verifies Open either mounts a consistent generation or
// reports corruption — never panics or mounts a torn state.
func TestFileTruncatedAtEveryPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MinPageSize)
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 4; i++ {
			var id uint32
			if gen == 0 {
				id = f.Alloc()
			} else {
				id = uint32(i)
			}
			initPage(buf)
			page(buf).insert(binary.LittleEndian.AppendUint64(nil, uint64(gen*10+i)))
			if err := f.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Commit(Meta{Entries: uint64(gen)}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(whole); cut += MinPageSize {
		trunc := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d.db", cut))
		if err := os.WriteFile(trunc, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(trunc)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			continue
		}
		// Whatever generation mounted must read clean.
		rb := make([]byte, MinPageSize)
		for id := 0; id < g.Pages(); id++ {
			if err := g.ReadPage(uint32(id), rb); err != nil {
				t.Fatalf("cut %d: ReadPage %d: %v", cut, id, err)
			}
		}
		g.Close()
	}
}
