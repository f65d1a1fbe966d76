package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestPoolPropertySchedules drives the buffer pool through random
// pin/read/mutate/evict/checkpoint schedules against a reference model of
// every page's expected contents, checking the pool's core invariants after
// each step:
//
//   - a pinned frame is never evicted: under full eviction pressure a re-pin
//     of a held page is a hit, never a disk read;
//   - pool residency never exceeds the configured capacity (the schedules
//     never pin every frame at once, so overflow must stay zero);
//   - every pin observes exactly the bytes the model last wrote, so a page
//     that was evicted and reloaded is byte-identical;
//   - dirty pages are written back exactly once per generation: write-backs
//     never outrun dirty events, and a flush right after a flush adds none;
//   - frames are recycled: the pool allocates at most cap page buffers over
//     its life, and a steady-state miss allocates nothing.
//
// After the schedule the file is committed, closed, and reopened: every page
// on disk must equal the model.
func TestPoolPropertySchedules(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runPoolSchedule(t, rand.New(rand.NewSource(seed)))
		})
	}
}

// TestPoolConcurrentEviction has four goroutines pin and unpin random pages
// of a four-frame pool over 32 pages — nearly every pin evicts a frame some
// other goroutine just released — and check each pinned page's contents
// while holding the pin. Run under -race it also checks the pool's locking
// around recycled buffers.
func TestPoolConcurrentEviction(t *testing.T) {
	const (
		capPages = 4
		nPages   = 32
		workers  = 4
		pins     = 500
	)
	f := newFile(t, MinPageSize)
	pool := NewPool(f, capPages)
	content := func(id uint32) string { return fmt.Sprintf("page %03d of %d", id, nPages) }
	for i := 0; i < nPages; i++ {
		id, data, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page(data).insert([]byte(content(id)))
		pool.Unpin(id, true)
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		go func() {
			for i := 0; i < pins; i++ {
				id := uint32(rng.Intn(nPages))
				data, err := pool.Pin(id)
				if err != nil {
					errs <- fmt.Errorf("pin %d: %v", id, err)
					return
				}
				got := string(page(data).cell(0))
				pool.Unpin(id, false)
				if got != content(id) {
					errs <- fmt.Errorf("pin %d read %q", id, got)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Resident > capPages || st.Overflow != 0 || st.Pinned != 0 {
		t.Fatalf("stats after the run %+v: want ≤ %d resident, no overflow, nothing pinned", st, capPages)
	}
	if st.Evictions < pins {
		t.Fatalf("only %d evictions: too little pressure to test recycling", st.Evictions)
	}
}

func runPoolSchedule(t *testing.T, rng *rand.Rand) {
	const (
		capPages = 4
		nPages   = 24
		steps    = 400
	)
	path := filepath.Join(t.TempDir(), "pool.pgf")
	f, err := Create(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			f.Close()
		}
	}()
	pool := NewPool(f, capPages)

	// The model: what every page must read as. Pages start as what Alloc
	// initialised them to.
	model := make(map[uint32][]byte, nPages)
	ids := make([]uint32, 0, nPages)
	for i := 0; i < nPages; i++ {
		id, buf, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		model[id] = append([]byte(nil), buf...)
		ids = append(ids, id)
		pool.Unpin(id, true)
	}
	dirtyEvents := uint64(nPages) // Alloc marks every new frame dirty
	epoch := uint64(1)

	// Bytes 0:4 of every page are the checksum slot WritePage stamps in
	// place, so the model never writes or compares them.
	mutate := func(id uint32, buf []byte) {
		off := 4 + rng.Intn(len(buf)-12)
		rng.Read(buf[off : off+8])
		copy(model[id], buf)
	}
	samePage := func(a, b []byte) bool { return bytes.Equal(a[4:], b[4:]) }
	check := func(step int) {
		t.Helper()
		s := pool.Stats()
		if s.Resident > capPages {
			t.Fatalf("step %d: %d frames resident, cap %d", step, s.Resident, capPages)
		}
		if s.Overflow != 0 {
			t.Fatalf("step %d: pool overflowed %d times with at most 2 held pins", step, s.Overflow)
		}
		if s.Writebacks > dirtyEvents {
			t.Fatalf("step %d: %d write-backs outran %d dirty events", step, s.Writebacks, dirtyEvents)
		}
	}
	buffers := make(map[*byte]bool) // distinct frame buffers handed out
	pinCheck := func(step int, id uint32) []byte {
		t.Helper()
		buf, err := pool.Pin(id)
		if err != nil {
			t.Fatalf("step %d: pin %d: %v", step, id, err)
		}
		buffers[&buf[0]] = true
		if !samePage(buf, model[id]) {
			t.Fatalf("step %d: page %d diverged from the model after reload", step, id)
		}
		return buf
	}

	for step := 0; step < steps; step++ {
		i := rng.Intn(len(ids))
		id := ids[i]
		switch op := rng.Intn(10); {
		case op < 6: // pin, verify, maybe mutate, unpin
			buf := pinCheck(step, id)
			dirty := rng.Intn(2) == 0
			if dirty {
				mutate(id, buf)
				dirtyEvents++
			}
			pool.Unpin(id, dirty)

		case op < 8: // hold a pin through full eviction pressure
			buf := pinCheck(step, id)
			for j := 1; j <= capPages+2; j++ {
				other := ids[(i+j)%len(ids)]
				_ = pinCheck(step, other)
				pool.Unpin(other, false)
			}
			before := pool.Stats()
			again := pinCheck(step, id)
			after := pool.Stats()
			if after.Misses != before.Misses {
				t.Fatalf("step %d: re-pin of held page %d went to disk — pinned frame was evicted", step, id)
			}
			if &again[0] != &buf[0] {
				t.Fatalf("step %d: re-pin of held page %d returned a different frame", step, id)
			}
			pool.Unpin(id, false)
			pool.Unpin(id, false)

		default: // checkpoint: flush everything, commit a generation
			if err := pool.FlushAll(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			flushed := pool.Stats().Writebacks
			if err := pool.FlushAll(); err != nil {
				t.Fatalf("step %d: reflush: %v", step, err)
			}
			if again := pool.Stats().Writebacks; again != flushed {
				t.Fatalf("step %d: second flush wrote %d more pages — dirty flag not cleared",
					step, again-flushed)
			}
			epoch++
			if err := f.Commit(Meta{Epoch: epoch}); err != nil {
				t.Fatalf("step %d: commit: %v", step, err)
			}
		}
		check(step)
	}

	// The schedule must actually have exercised eviction and reload.
	final := pool.Stats()
	if final.Evictions == 0 {
		t.Fatal("schedule never evicted — pool pressure too low to test anything")
	}
	if final.Misses <= uint64(nPages)/2 {
		t.Fatalf("only %d misses over %d pages — evicted pages were never reloaded", final.Misses, nPages)
	}
	// Frames are recycled, never reallocated: over its whole life the pool
	// allocated at most cap page buffers, and every pin above returned one
	// of them.
	if pool.nframes > capPages || len(buffers) > capPages {
		t.Fatalf("pool allocated %d frames and handed out %d distinct buffers, cap %d",
			pool.nframes, len(buffers), capPages)
	}

	// Final checkpoint, then reopen the file cold: disk must equal the model.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// With every frame clean, a steady-state miss — evict the LRU frame,
	// read the page over its buffer — allocates nothing. Pinning the pages
	// round-robin makes every pin a miss.
	next := 0
	missesBefore := pool.Stats().Misses
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		id := ids[next%len(ids)]
		next++
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	})
	if allocs != 0 {
		t.Fatalf("a steady-state miss allocates %.1f times", allocs)
	}
	if got := pool.Stats().Misses - missesBefore; got < runs {
		t.Fatalf("%d misses over %d round-robin pins: the allocation check measured hits", got, runs)
	}
	epoch++
	if err := f.Commit(Meta{Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.Meta().Epoch; got != epoch {
		t.Fatalf("reopened at epoch %d, committed %d", got, epoch)
	}
	buf := make([]byte, MinPageSize)
	for _, id := range ids {
		if err := f2.ReadPage(id, buf); err != nil {
			t.Fatalf("reopen read page %d: %v", id, err)
		}
		if !samePage(buf, model[id]) {
			t.Fatalf("page %d on disk diverged from the model after reopen", id)
		}
	}
}
