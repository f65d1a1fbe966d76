package pager

import (
	"errors"
	"fmt"
	"sync"
)

// ErrPoolExhausted reports a pin or allocation that needs a frame while
// every frame of the pool is pinned. The pool never grows past its
// capacity; the caller unpins something and retries.
var ErrPoolExhausted = errors.New("pager: buffer pool exhausted: every frame is pinned")

// Pool is a pinning buffer pool over a File. Pages are pinned into frames
// for access and unpinned (optionally dirty) when done. The pool owns at
// most cap frames, allocated lazily; once all exist, a miss recycles the
// least-recently-used unpinned frame and its buffer, writing it back through
// the file's shadow-paging layer first if dirty. Unpinned frames sit on an
// intrusive LRU list, so choosing the victim is O(1). If every frame is
// pinned, the pin is refused with ErrPoolExhausted.
type Pool struct {
	f   *File
	cap int

	mu      sync.Mutex
	frames  map[uint32]*frame // resident pages
	nframes int               // frames allocated so far, ≤ cap
	lru     frame             // sentinel: lru.next is the least recently unpinned
	spare   []*frame          // frames holding no page (failed read, invalidated)
	pinned  int               // resident frames with pins > 0
	stats   PoolStats
}

// frame is one page-sized buffer. While unpinned and resident it is linked
// into the pool's LRU list through prev/next.
type frame struct {
	id         uint32
	data       []byte
	pins       int
	dirty      bool
	prev, next *frame
}

// PoolStats counts buffer-pool traffic since the pool was created, plus a
// snapshot of current residency.
type PoolStats struct {
	Hits       uint64 // pins served from a resident frame
	Misses     uint64 // pins that read the page from disk
	Evictions  uint64 // frames recycled to make room
	Writebacks uint64 // dirty frames written back (evictions + flushes)
	Overflow   uint64 // pins and allocations refused with ErrPoolExhausted
	Resident   int    // frames resident right now (snapshot, not a counter)
	Pinned     int    // frames pinned right now (snapshot, not a counter)
}

// NewPool builds a pool of at most capPages resident pages over the file.
func NewPool(f *File, capPages int) *Pool {
	if capPages < 1 {
		capPages = 1
	}
	p := &Pool{f: f, cap: capPages, frames: make(map[uint32]*frame)}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// File returns the underlying page file.
func (p *Pool) File() *File { return p.f }

// Pin makes the page resident and returns its frame bytes. The slice stays
// valid until the matching Unpin. Concurrent pins of the same page share
// one frame. A page that fails to read leaves no frame behind.
func (p *Pool) Pin(id uint32) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok {
		p.pinLocked(fr)
		p.stats.Hits++
		return fr.data, nil
	}
	fr, err := p.frameLocked()
	if err != nil {
		return nil, err
	}
	if err := p.f.ReadPage(id, fr.data); err != nil {
		p.spare = append(p.spare, fr)
		return nil, err
	}
	p.installLocked(fr, id, false)
	p.stats.Misses++
	return fr.data, nil
}

// Alloc allocates a fresh logical page, pinned and initialized as an empty
// slotted page. It claims the frame before the logical page, so a refusal
// leaves the file untouched.
func (p *Pool) Alloc() (uint32, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, err := p.frameLocked()
	if err != nil {
		return 0, nil, err
	}
	id := p.f.Alloc()
	if old, ok := p.frames[id]; ok {
		// A stale frame of a freed page whose id the file just reused.
		if old.pins > 0 {
			p.spare = append(p.spare, fr)
			return 0, nil, fmt.Errorf("pager: Alloc reused page %d while it is pinned", id)
		}
		p.dropLocked(old)
	}
	initPage(fr.data)
	p.installLocked(fr, id, true)
	return id, fr.data, nil
}

// frameLocked returns a frame holding no page: a spare one, a fresh one
// while fewer than cap exist, or the least-recently-used unpinned frame,
// written back if dirty and removed from the table.
func (p *Pool) frameLocked() (*frame, error) {
	if n := len(p.spare); n > 0 {
		fr := p.spare[n-1]
		p.spare = p.spare[:n-1]
		return fr, nil
	}
	if p.nframes < p.cap {
		p.nframes++
		return &frame{data: make([]byte, p.f.PageSize())}, nil
	}
	fr := p.lru.next
	if fr == &p.lru {
		p.stats.Overflow++
		return nil, ErrPoolExhausted
	}
	if fr.dirty {
		if err := p.f.WritePage(fr.id, fr.data); err != nil {
			return nil, err
		}
		fr.dirty = false
		p.stats.Writebacks++
	}
	fr.unlink()
	delete(p.frames, fr.id)
	p.stats.Evictions++
	return fr, nil
}

// installLocked makes fr the resident, once-pinned frame of page id.
func (p *Pool) installLocked(fr *frame, id uint32, dirty bool) {
	fr.id, fr.pins, fr.dirty = id, 1, dirty
	p.frames[id] = fr
	p.pinned++
}

// pinLocked adds a pin to a resident frame, taking it off the LRU list on
// its first pin.
func (p *Pool) pinLocked(fr *frame) {
	if fr.pins == 0 {
		fr.unlink()
		p.pinned++
	}
	fr.pins++
}

// dropLocked removes an unpinned frame from the table without writing it
// back and keeps it as a spare.
func (p *Pool) dropLocked(fr *frame) {
	fr.unlink()
	delete(p.frames, fr.id)
	fr.dirty = false
	p.spare = append(p.spare, fr)
}

func (fr *frame) unlink() {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// Unpin releases one pin; dirty marks the frame as modified since it was
// pinned. A frame whose last pin goes becomes the most recently used entry
// of the LRU list.
func (p *Pool) Unpin(id uint32, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("pager: Unpin of unpinned page %d", id))
	}
	if dirty {
		fr.dirty = true
	}
	if fr.pins--; fr.pins == 0 {
		fr.prev, fr.next = p.lru.prev, &p.lru
		p.lru.prev.next = fr
		p.lru.prev = fr
		p.pinned--
	}
}

// FlushAll writes every dirty frame back through the file's shadow layer.
// Frames stay resident; a following File.Commit makes them durable.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, fr := range p.frames {
		if !fr.dirty {
			continue
		}
		if err := p.f.WritePage(id, fr.data); err != nil {
			return err
		}
		fr.dirty = false
		p.stats.Writebacks++
	}
	return nil
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Resident = len(p.frames)
	s.Pinned = p.pinned
	return s
}

// Cap returns the pool's frame capacity.
func (p *Pool) Cap() int { return p.cap }

// Invalidate drops the frames of the given pages without writing them back
// — for pages the caller has freed in the file, whose cached contents are
// garbage. Pinned frames are left alone; freeing a pinned page is a caller
// bug that surfaces as a read error later.
func (p *Pool) Invalidate(ids []uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if fr, ok := p.frames[id]; ok && fr.pins == 0 {
			p.dropLocked(fr)
		}
	}
}
