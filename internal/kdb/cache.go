package kdb

import (
	"slices"
	"sync"

	"mlds/internal/abdl"
)

// DefaultCacheSize is the default retrieve-result cache capacity in entries.
const DefaultCacheSize = 256

// retrieveCache memoises RETRIEVE results keyed by the request's canonical
// text form. A cached result, every hit served from it and the store itself
// share the same row pointers — stored records are immutable once published
// (an UPDATE replaces a record, it never writes into one) — so a hit copies
// the Result and its slices and no row. Entries remember the per-file
// generation counters they were built under; a lookup whose generations no
// longer match drops the entry. The cache never serves a stale result: every
// mutation bumps the touched file's generation (and the store-wide one) under
// the store's write lock before the mutation is visible, and lookups compare
// generations while holding at least the read lock.
type retrieveCache struct {
	mu  sync.Mutex
	cap int // ≤ 0 disables the cache
	m   map[string]*cacheEntry
}

// cacheEntry is one memoised result with its validity snapshot.
type cacheEntry struct {
	res   *Result  // private slices over shared rows; copied again on every hit
	files []string // files the qualification depended on
	snap  []uint64 // s.gens[files[i]] at fill time
	// all marks entries for queries with a conjunction lacking a file
	// predicate (or no query at all): they can match records in files that
	// did not exist at fill time, so they validate against the store-wide
	// generation instead of per-file counters.
	all    bool
	global uint64
}

// cacheKey returns the result-cache key of a RETRIEVE ("" when the cache is
// off): the request's canonical text — rendered once by the controller for
// all backends when it set Request.CacheKey, here otherwise — plus, for a
// snapshot read, the epoch.
func (s *Store) cacheKey(req *abdl.Request) string {
	if s.cache.cap <= 0 {
		return ""
	}
	key := req.CacheKey
	if key == "" {
		key = req.String()
	}
	if req.SnapEpoch != 0 {
		key = snapCacheKey(key, req.SnapEpoch)
	}
	return key
}

// cacheLookup returns a copy of the cached result for key if it is still
// valid. Caller must hold at least the store's read lock (for the generation
// reads).
func (s *Store) cacheLookup(key string) (*Result, bool) {
	if s.cache.cap <= 0 {
		return nil, false
	}
	s.cache.mu.Lock()
	e, ok := s.cache.m[key]
	s.cache.mu.Unlock()
	if !ok {
		return nil, false
	}
	valid := true
	if e.all {
		valid = e.global == s.genAll
	} else {
		for i, f := range e.files {
			if s.gens[f] != e.snap[i] {
				valid = false
				break
			}
		}
	}
	if !valid {
		s.cache.mu.Lock()
		// Re-check identity: a concurrent fill may have replaced the entry.
		if s.cache.m[key] == e {
			delete(s.cache.m, key)
		}
		s.cache.mu.Unlock()
		return nil, false
	}
	return cloneResult(e.res), true
}

// cacheFill stores a private copy of res under key, snapshotting the
// generations of the files the qualification depended on. Caller must hold
// at least the store's read lock.
func (s *Store) cacheFill(key string, res *Result, deps qualDeps) {
	if s.cache.cap <= 0 {
		return
	}
	e := &cacheEntry{res: cloneResult(res), all: deps.allFiles}
	if deps.allFiles {
		e.global = s.genAll
	} else {
		e.files = make([]string, 0, len(deps.files))
		e.snap = make([]uint64, 0, len(deps.files))
		for f := range deps.files {
			e.files = append(e.files, f)
			e.snap = append(e.snap, s.gens[f])
		}
	}
	s.cache.mu.Lock()
	if _, exists := s.cache.m[key]; !exists && len(s.cache.m) >= s.cache.cap {
		// Evict an arbitrary entry; the map's iteration order is as good a
		// victim policy as any for this workload.
		for k := range s.cache.m {
			delete(s.cache.m, k)
			break
		}
	}
	s.cache.m[key] = e
	s.cache.mu.Unlock()
}

// cloneResult copies a result and every slice it holds, so the cached state
// and a caller-held result never share a slice: Result.Merge and DedupByID
// sort and filter Records, Groups[i].Recs and Affected in place in the
// multi-backend merge path. The rows themselves are shared, not copied —
// they are read-only (see StoredRecord).
func cloneResult(r *Result) *Result {
	cp := *r
	cp.Records = slices.Clone(r.Records)
	cp.Groups = slices.Clone(r.Groups)
	for i, g := range cp.Groups {
		cp.Groups[i].Recs = slices.Clone(g.Recs)
		cp.Groups[i].Aggs = slices.Clone(g.Aggs)
	}
	cp.Affected = slices.Clone(r.Affected)
	cp.Paths = slices.Clone(r.Paths)
	return &cp
}
