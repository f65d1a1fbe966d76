package core

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/pager"
)

// newPagedSystem builds an MLDS instance whose every kernel partition is a
// demand-paged backed store behind a deliberately tiny buffer pool: 8 frames
// of the minimum page size, so any non-trivial corpus is larger than RAM and
// every read path exercises demand paging and eviction. Each store a
// database creates gets its own page file in the test's temp dir.
func newPagedSystem(t *testing.T) *System {
	t.Helper()
	tmp := t.TempDir()
	var seq atomic.Int64
	cfg := mbds.DefaultConfig(2)
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		opts = append(opts, kdb.WithPageSize(pager.MinPageSize), kdb.WithPoolPages(8))
		path := filepath.Join(tmp, fmt.Sprintf("store-%d-%d.pgf", seq.Add(1), pos))
		return kdb.CreateBacked(path, d, opts...)
	}
	s := NewSystem(Config{Kernel: cfg})
	t.Cleanup(s.Close)
	return s
}

// TestCrossModelDifferentialPaged is the larger-than-RAM differential suite:
// the cross-model corpus — grown well past the 8-frame pool — is driven
// through all five language interfaces twice, once against the in-memory
// kernel and once against demand-paged backed stores, and the kernel-level
// result sets must be identical (a) across the five models within the paged
// system, after every phase, and (b) between the paged and in-memory runs.
// The paged stores must actually page: more heap pages than pool frames, and
// real evictions. Run under -race in make check.
func TestCrossModelDifferentialPaged(t *testing.T) {
	mem := newSystem(t)
	paged := newPagedSystem(t)
	memDrivers := newDiffDrivers(t, mem)
	pagedDrivers := newDiffDrivers(t, paged)

	// The PR corpus plus a generated bulk that dwarfs the 8-frame pool.
	emps := []diffEmp{{"Ann", 900}, {"Bob", 700}, {"Cay", 800}, {"Fay", 600}}
	for i := 0; i < 120; i++ {
		emps = append(emps, diffEmp{fmt.Sprintf("E%03d", i), int64(100 + i)})
	}
	// The immutability tripwire (holdRows / assertRowsUntouched) brackets
	// every phase on both systems: on the paged one it holds the resident
	// bodies the stores share and fresh decodes of the paged-out rest.
	both := append(append([]*diffDriver(nil), memDrivers...), pagedDrivers...)
	for _, d := range both {
		for _, e := range emps[:len(emps)/2] {
			d.load(t, e)
		}
	}
	held := holdRows(t, both)
	for _, d := range both {
		for _, e := range emps[len(emps)/2:] {
			d.load(t, e)
		}
	}
	assertAgreement(t, pagedDrivers, "paged after load", 800)
	assertPagedMatchesMemory(t, memDrivers, pagedDrivers, "after load")
	assertRowsUntouched(t, held, "load")

	held = holdRows(t, both)
	for _, d := range both {
		d.setPay(t, "Bob", 850)
		d.setPay(t, "E007", 950)
	}
	assertAgreement(t, pagedDrivers, "paged after update", 800)
	assertPagedMatchesMemory(t, memDrivers, pagedDrivers, "after update")
	assertRowsUntouched(t, held, "update")

	held = holdRows(t, both)
	for _, d := range both {
		d.del(t, "Fay")
		d.del(t, "E031")
	}
	assertAgreement(t, pagedDrivers, "paged after delete", 800)
	assertPagedMatchesMemory(t, memDrivers, pagedDrivers, "after delete")
	assertRowsUntouched(t, held, "delete")

	// Honesty check: the paged run must really have been larger than RAM.
	for _, d := range pagedDrivers {
		var pages, evictions, resident uint64
		backends := 0
		for pos := 0; ; pos++ {
			st := d.db.Kernel.Store(pos)
			if st == nil {
				break
			}
			stats, p, backed := st.BackingStats()
			if !backed {
				t.Fatalf("%s: partition %d is not paged", d.lang, pos)
			}
			pages += uint64(p)
			evictions += stats.Evictions
			resident += uint64(stats.Resident)
			if stats.Resident > 8 {
				t.Errorf("%s: partition %d pool holds %d frames, cap 8", d.lang, pos, stats.Resident)
			}
			backends++
		}
		if pages <= uint64(8*backends) {
			t.Errorf("%s: %d heap pages across %d backends does not exceed the pool", d.lang, pages, backends)
		}
		if evictions == 0 {
			t.Errorf("%s: pool never evicted — corpus not larger than RAM", d.lang)
		}
	}
}

// assertPagedMatchesMemory checks, language by language, that the paged
// system's kernel holds exactly what the in-memory system's kernel holds.
func assertPagedMatchesMemory(t *testing.T, mem, paged []*diffDriver, phase string) {
	t.Helper()
	for i := range mem {
		m, p := kernelSet(t, mem[i].db), kernelSet(t, paged[i].db)
		if fmt.Sprint(m) != fmt.Sprint(p) {
			t.Errorf("%s: %s kernel diverges between memory and paged runs:\n  mem   %v\n  paged %v",
				phase, mem[i].lang, m, p)
		}
	}
}
