// Package pager is the on-disk storage engine under internal/kdb: slotted
// record pages in a copy-on-write page file, cached by a pinning buffer
// pool, with a record heap on top.
//
// The file layer commits whole generations atomically (dual superblocks,
// shadow-paged data, a copy-on-write page table), and every committed
// generation embeds checkpoint metadata — the MVCC epoch and the count of
// journalled entries the image reflects — so the kernel controller can
// bound crash recovery to the journal tail written after the last
// checkpoint.
package pager

import (
	"encoding/binary"
	"errors"
)

// Page geometry. Every page starts with a fixed header; cells grow upward
// from the header, the slot directory grows downward from the page end.
//
//	[0:4)   crc32 (castagnoli) over page[4:], set at write time
//	[4:6)   slot count
//	[6:8)   freeOff: first free byte after the last cell
//	[8:10)  dead: bytes held by deleted cells, reclaimable by compaction
//	[10:12) reserved
const (
	pageHeaderSize = 12
	slotSize       = 4

	// MinPageSize is small enough for tests to force page churn; DefaultPageSize
	// is the production geometry.
	MinPageSize     = 128
	DefaultPageSize = 4096

	// deadSlot marks a slot whose cell was deleted; the slot is reusable.
	deadSlot = 0xFFFF
)

// ErrTooLarge reports a record too big for a single page's cell area.
var ErrTooLarge = errors.New("pager: record exceeds page capacity")

type page []byte

func initPage(p page) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[6:8], pageHeaderSize)
}

func (p page) slotCount() int { return int(binary.LittleEndian.Uint16(p[4:6])) }
func (p page) freeOff() int   { return int(binary.LittleEndian.Uint16(p[6:8])) }
func (p page) dead() int      { return int(binary.LittleEndian.Uint16(p[8:10])) }

func (p page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p[4:6], uint16(n)) }
func (p page) setFreeOff(n int)   { binary.LittleEndian.PutUint16(p[6:8], uint16(n)) }
func (p page) setDead(n int)      { binary.LittleEndian.PutUint16(p[8:10], uint16(n)) }

// slot returns the offset/length pair of slot i. A dead slot has off ==
// deadSlot.
func (p page) slot(i int) (off, ln int) {
	base := len(p) - (i+1)*slotSize
	return int(binary.LittleEndian.Uint16(p[base : base+2])),
		int(binary.LittleEndian.Uint16(p[base+2 : base+4]))
}

func (p page) setSlot(i, off, ln int) {
	base := len(p) - (i+1)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:base+4], uint16(ln))
}

// cell returns the stored bytes of slot i, nil if the slot is dead or out of
// range, or if its slot or cell lies outside the page (a damaged page). The
// returned slice aliases the page.
func (p page) cell(i int) []byte {
	if i < 0 || i >= p.slotCount() || (i+1)*slotSize > len(p)-pageHeaderSize {
		return nil
	}
	off, ln := p.slot(i)
	if off == deadSlot || off < pageHeaderSize || off+ln > len(p) {
		return nil
	}
	return p[off : off+ln]
}

// contiguous reports the free bytes between the cell area and the slot
// directory.
func (p page) contiguous() int {
	return len(p) - p.slotCount()*slotSize - p.freeOff()
}

// usable reports the bytes an insert could claim after compaction, assuming
// it may need a fresh slot.
func (p page) usable() int { return p.contiguous() + p.dead() }

// pageCapacity is the largest cell a page of the given size can hold.
func pageCapacity(pageSize int) int { return pageSize - pageHeaderSize - slotSize }

// insert stores the cell and returns its slot, or false if the page cannot
// hold it even after compaction.
func (p page) insert(cell []byte) (int, bool) {
	need := len(cell)
	slot := -1
	for i := 0; i < p.slotCount(); i++ {
		if off, _ := p.slot(i); off == deadSlot {
			slot = i
			break
		}
	}
	if slot == -1 {
		need += slotSize
	}
	if p.contiguous() < need {
		if p.usable() < need {
			return 0, false
		}
		p.compact()
	}
	if slot == -1 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	off := p.freeOff()
	copy(p[off:], cell)
	p.setSlot(slot, off, len(cell))
	p.setFreeOff(off + len(cell))
	return slot, true
}

// del removes the cell in slot i; the space is reclaimed lazily by compact.
func (p page) del(i int) bool {
	if i < 0 || i >= p.slotCount() {
		return false
	}
	off, ln := p.slot(i)
	if off == deadSlot {
		return false
	}
	p.setSlot(i, deadSlot, 0)
	p.setDead(p.dead() + ln)
	return true
}

// compact rewrites live cells contiguously from the header, erasing dead
// space. Slot numbers are stable; only offsets move.
func (p page) compact() {
	n := p.slotCount()
	type ent struct{ slot, off, ln int }
	live := make([]ent, 0, n)
	for i := 0; i < n; i++ {
		if off, ln := p.slot(i); off != deadSlot {
			live = append(live, ent{i, off, ln})
		}
	}
	// Cells are copied in ascending offset order so each move writes into
	// space already vacated.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].off > live[j].off; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	w := pageHeaderSize
	for _, e := range live {
		copy(p[w:], p[e.off:e.off+e.ln])
		p.setSlot(e.slot, w, e.ln)
		w += e.ln
	}
	p.setFreeOff(w)
	p.setDead(0)
}

// liveCells calls fn for every live cell on the page.
func (p page) liveCells(fn func(slot int, cell []byte)) {
	n := min(p.slotCount(), (len(p)-pageHeaderSize)/slotSize)
	for i := 0; i < n; i++ {
		if c := p.cell(i); c != nil {
			fn(i, c)
		}
	}
}
