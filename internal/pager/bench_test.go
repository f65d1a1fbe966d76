package pager

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkHeapPutAppend measures an append-style insert — every page but
// the newest is full — into a heap that already holds n cells, through a
// 159-frame pool of default-size pages. The free-space lookup must not range
// over the full pages, so ns/op stays flat as n grows tenfold.
//
//	go test -run '^$' -bench HeapPutAppend -benchmem ./internal/pager
func BenchmarkHeapPutAppend(b *testing.B) {
	cell := make([]byte, 150) // about one bank row
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			f, err := Create(filepath.Join(b.TempDir(), "heap.db"), DefaultPageSize)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			h, err := NewHeap(NewPool(f, 159))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := h.Put(cell); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Put(cell); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
