package kc

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"mlds/internal/kdb"
	"mlds/internal/pager"
)

// Fleet checkpoints.
//
// A multi-backend system puts every partition's backed store behind ONE
// controller and ONE journal. Checkpointing the stores one at a time would
// stamp each page file with a different journal position,
// and recovery — which replays the shared journal exactly once, with a
// single skip count — could not pick a position valid for all of them.
// CheckpointFleet fences every store inside the same stamp barrier, so all
// images are exact at one journal position and recovery has a single
// consistent cut.
//
// The rule a shared-journal fleet must follow: checkpoint every store
// together in one CheckpointFleet call (a lone store is a fleet of one).
// Mixing per-store checkpoints into a fleet leaves page files stamped
// at interleaved positions; FleetCut then recovers to the oldest of them
// and the marker/image mismatch check in RecoverJournalFrom refuses any
// rotated journal whose marker claims a newer prefix.

// ErrEmptyFleet reports a fleet operation over no stores.
var ErrEmptyFleet = errors.New("kc: empty fleet")

// CheckpointFleet takes one coordinated fuzzy checkpoint of several backed
// stores. All stores are fenced inside a single stamp barrier and the
// journal position is captured under the same barrier, so every image
// commits exact at that one position; each page file keeps its own applied
// epoch. After all images are durable, one checkpoint marker is written (the
// journal rotates when no committed entries have accumulated past the
// barrier). Any failure before the first image commit aborts the whole
// checkpoint; a failure between image commits leaves the already-committed
// generations in place — they are stamped with barrier positions, so fleet
// recovery (FleetCut + OpenBackedAt) still mounts a consistent cut, never a
// blend.
func (c *Controller) CheckpointFleet(stores []*kdb.Store) (CheckpointInfo, error) {
	var info CheckpointInfo
	if len(stores) == 0 {
		return info, ErrEmptyFleet
	}
	var (
		epochs = make([]uint64, len(stores))
		pos    uint64
		maxKey int64
		err    error
	)
	c.txns.WithStampBarrier(func() {
		for i, st := range stores {
			epochs[i], err = st.CheckpointBegin()
			if err != nil {
				for _, fenced := range stores[:i] {
					fenced.CheckpointAbort()
				}
				return
			}
		}
		// The position of the last stamped batch, not jEntries: a batch that
		// has flushed to the journal but waits behind this barrier to stamp
		// is counted in jEntries yet absent from every image, and recovery
		// would skip it as covered.
		c.mu.Lock()
		pos, maxKey = c.jNoted, c.jMaxKey
		if k := c.nextKey.Load(); k > maxKey {
			maxKey = k
		}
		c.mu.Unlock()
		// An image already past pos (mounted without SeedRecovery) would be
		// replaced by one stamped below it, and recovery could no longer
		// reach the journal entries in between.
		for _, st := range stores {
			if m, _ := st.BackingMeta(); m.Entries > pos {
				err = fmt.Errorf("%w: a store's image covers %d journal entries, the controller is at %d",
					ErrCheckpointUnaligned, m.Entries, pos)
				for _, fenced := range stores {
					fenced.CheckpointAbort()
				}
				return
			}
		}
	})
	if err != nil {
		return info, err
	}

	// Fences are up; flush and commit every image at the barrier position.
	// Group commit keeps running — new batches land past pos and replay as
	// tail. On a flush failure the remaining stores are not committed, but
	// generations already committed stand: each is exact at pos, and
	// recovery's cut is the minimum position across the fleet.
	for i, st := range stores {
		meta := pager.Meta{Epoch: epochs[i], Entries: pos, MaxKey: maxKey}
		if ferr := st.CheckpointFlush(meta); ferr != nil {
			err = fmt.Errorf("kc: fleet checkpoint, store %d: %w", i, ferr)
			break
		}
	}
	for i, st := range stores {
		// Release reports a write-through that failed while it drained.
		if rerr := st.CheckpointRelease(); rerr != nil && err == nil {
			err = fmt.Errorf("kc: fleet checkpoint, store %d: %w", i, rerr)
		}
	}
	if err != nil {
		return info, err
	}

	info.Meta = pager.Meta{Epoch: slices.Max(epochs), Entries: pos, MaxKey: maxKey}

	// Every image is durable; note the barrier in the journal.
	c.mu.Lock()
	defer c.mu.Unlock()
	return info, c.markCheckpointLocked(&info)
}

// FleetCut computes the recovery position for a fleet of page files sharing
// one journal: the largest journal position every file has a committed
// generation at or below — the minimum, across the fleet, of each file's
// newest generation position. Mount each store with kdb.OpenBackedAt at the
// cut, then replay the shared journal once past it (RecoverFleet). Because
// fleet checkpoints stamp every generation at barrier positions, a crash
// between two stores' image commits recovers the laggard's previous barrier
// for everyone, never a blend of positions.
func FleetCut(paths []string) (uint64, error) {
	if len(paths) == 0 {
		return 0, ErrEmptyFleet
	}
	var cut uint64
	for i, p := range paths {
		metas, err := pager.Metas(p)
		if err != nil {
			return 0, fmt.Errorf("kc: fleet cut: %s: %w", p, err)
		}
		if len(metas) == 0 {
			return 0, fmt.Errorf("kc: fleet cut: %s: no valid generation", p)
		}
		if i == 0 || metas[0].Entries < cut {
			cut = metas[0].Entries
		}
	}
	return cut, nil
}

// RecoverFleet replays the shared journal past a fleet cut and seeds the
// controller's clock, key allocator and checkpoint accounting from the
// mounted images. Call it after opening every store of the fleet with
// kdb.OpenBackedAt(path, dir, cut) and registering them on the system —
// replay fans the tail back out through normal request routing. metas are
// the mounted stores' page metadata (kdb.Store.BackingMeta or
// pager.File.Meta); it returns the number of tail entries applied.
func (c *Controller) RecoverFleet(r io.Reader, cut uint64, metas ...pager.Meta) (int, error) {
	n, total, err := c.RecoverJournalFrom(r, cut)
	if err != nil {
		return n, err
	}
	seed := pager.Meta{Entries: cut}
	for _, m := range metas {
		if m.Epoch > seed.Epoch {
			seed.Epoch = m.Epoch
		}
		if m.MaxKey > seed.MaxKey {
			seed.MaxKey = m.MaxKey
		}
	}
	c.SeedRecovery(seed, total)
	return n, nil
}
