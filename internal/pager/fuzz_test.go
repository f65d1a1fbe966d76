package pager

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// twoGenerationFile builds a small page file with two committed
// generations — heap pages, a rewritten page and a blob chain rooted in the
// second generation's metadata — and returns its bytes.
func twoGenerationFile(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "seed.db")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := NewHeap(NewPool(f, 2))
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 12; i++ {
		rid, err := h.Put([]byte(fmt.Sprintf("gen1-record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Epoch: 1, Entries: 12}); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Update(rids[1], []byte("gen2-rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, err := f.WriteBlob([]byte("an index image spanning more than one blob page of the file, " +
		"long enough to need a chain of them"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(Meta{Epoch: 2, Entries: 14, HasIndex: true, IndexRoot: blob[0]}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzOpen writes arbitrary bytes as a page file and mounts it. Open must
// either fail with an error or mount a generation whose every page can then
// be pinned, scanned by the heap and — for the index root — read as a blob
// chain, all without panicking or hanging; errors along the way are fine.
func FuzzOpen(f *testing.F) {
	whole := twoGenerationFile(f)
	f.Add(whole)
	for _, cut := range []int{superSize, MinPageSize + superSize, 3 * MinPageSize, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pf, err := Open(path)
		if err != nil {
			return
		}
		defer pf.Close()
		pool := NewPool(pf, 4)
		for id := uint32(0); int(id) < pf.Pages(); id++ {
			if pf.IsFree(id) {
				continue
			}
			if _, err := pool.Pin(id); err == nil {
				pool.Unpin(id, false)
			}
		}
		if st := pool.Stats(); st.Resident > pool.Cap() || st.Pinned != 0 {
			t.Fatalf("pool stats %+v after pinning every page", st)
		}
		if h, err := NewHeap(pool); err == nil {
			_ = h.Scan(func(RID, []byte) error { return nil })
		}
		if m := pf.Meta(); m.HasIndex {
			_, _, _ = ReadBlob(pool, m.IndexRoot)
		}
	})
}
