package kc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/pager"
	"mlds/internal/txn"
)

func fleetPath(tmp string, pos int) string {
	return filepath.Join(tmp, fmt.Sprintf("part%d.pgf", pos))
}

// fleetController builds an n-backend controller where partition pos lives
// in tmp/part{pos}.pgf. Existing page files are mounted — at the cut when
// bound is non-nil (fleet recovery), newest otherwise — and missing ones are
// created fresh. A nil dir declares file f with the one attribute x.
func fleetController(t *testing.T, tmp string, n int, bound *uint64, dir *abdm.Directory) (*Controller, []*kdb.Store, []pager.Meta) {
	t.Helper()
	if dir == nil {
		dir = abdm.NewDirectory()
		if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
			t.Fatal(err)
		}
		if err := dir.DefineFile("f", []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	metas := make([]pager.Meta, n)
	cfg := mbds.DefaultConfig(n)
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		path := fleetPath(tmp, pos)
		if _, err := os.Stat(path); err == nil {
			var (
				st  *kdb.Store
				m   pager.Meta
				err error
			)
			if bound != nil {
				st, m, err = kdb.OpenBackedAt(path, d, *bound, opts...)
			} else {
				st, m, err = kdb.OpenBacked(path, d, opts...)
			}
			metas[pos] = m
			return st, err
		}
		return kdb.CreateBacked(path, d, opts...)
	}
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*kdb.Store, n)
	var maxID uint64
	for i := range stores {
		stores[i] = sys.Store(i)
		if stores[i] == nil || !stores[i].Backed() {
			t.Fatalf("backend %d has no paged backing", i)
		}
		if metas[i].NextID > maxID {
			maxID = metas[i].NextID
		}
	}
	if maxID > 0 {
		sys.SeedIDs(maxID)
	}
	t.Cleanup(func() {
		for _, st := range stores {
			st.CloseBacking()
		}
		sys.Close()
	})
	return New(sys), stores, metas
}

// recoverFleet is the full fleet crash-recovery path: compute the cut from
// the page files, mount every partition at it, and replay the shared
// journal's tail once.
func recoverFleet(t *testing.T, tmp string, n int, journalPath string, dir *abdm.Directory) (*Controller, []*kdb.Store, []pager.Meta, int, uint64) {
	t.Helper()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fleetPath(tmp, i)
	}
	cut, err := FleetCut(paths)
	if err != nil {
		t.Fatal(err)
	}
	c, stores, metas := fleetController(t, tmp, n, &cut, dir)
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replayed, err := c.RecoverFleet(f, cut, metas...)
	if err != nil {
		t.Fatal(err)
	}
	return c, stores, metas, replayed, cut
}

// TestFleetCheckpointConsistentCut is the coordinated-checkpoint acceptance
// path: three partitions behind one journal checkpoint at a single barrier
// position, a tail accumulates, and crash recovery replays exactly that tail
// against all three images — then the recovered fleet checkpoints again and
// the next recovery replays nothing.
func TestFleetCheckpointConsistentCut(t *testing.T) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.gob")
	const n = 3

	c, stores, _ := fleetController(t, tmp, n, nil, nil)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 9; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.CheckpointFleet(stores)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Entries != 9 {
		t.Fatalf("fleet checkpoint covers %d entries, want 9", info.Meta.Entries)
	}
	if !info.Rotated || info.Tail != 0 {
		t.Fatalf("fleet checkpoint with no tail: rotated=%v tail=%d, want rotation", info.Rotated, info.Tail)
	}
	for v := int64(10); v <= 14; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}

	// Crash. Every page file must be stamped at the same barrier position.
	c2, stores2, metas2, replayed, cut := recoverFleet(t, tmp, n, journalPath, nil)
	if cut != 9 {
		t.Fatalf("fleet cut = %d, want the barrier position 9", cut)
	}
	for i, m := range metas2 {
		if m.Entries != 9 {
			t.Fatalf("partition %d mounted at %d entries, want 9", i, m.Entries)
		}
	}
	if replayed != 5 {
		t.Fatalf("recovery replayed %d entries, want exactly the 5-entry tail", replayed)
	}
	for v := int64(1); v <= 14; v++ {
		if cnt := countX(t, c2, v); cnt != 1 {
			t.Fatalf("x=%d recovered %d times, want 1", v, cnt)
		}
	}

	// The recovered fleet checkpoints again at the recovered position, and a
	// second recovery replays nothing.
	attachJournalFile(t, c2, journalPath)
	info, err = c2.CheckpointFleet(stores2)
	if err != nil {
		t.Fatalf("fleet checkpoint after recovery: %v", err)
	}
	if info.Meta.Entries != 14 {
		t.Fatalf("post-recovery fleet checkpoint covers %d entries, want 14", info.Meta.Entries)
	}
	c3, _, _, replayed, cut := recoverFleet(t, tmp, n, journalPath, nil)
	if cut != 14 || replayed != 0 {
		t.Fatalf("recovery after clean fleet checkpoint: cut=%d replayed=%d, want 14/0", cut, replayed)
	}
	for v := int64(1); v <= 14; v++ {
		if cnt := countX(t, c3, v); cnt != 1 {
			t.Fatalf("x=%d recovered %d times after re-checkpoint", v, cnt)
		}
	}
}

// TestFleetRestartAbortKeepsPlacement: a recovered controller places an undo
// restore where the controller that wrote the record placed it. A restore
// that landed on another partition left the committed image on the original
// one, and a later write through the new copy resurrected the stale row at
// the next recovery.
func TestFleetRestartAbortKeepsPlacement(t *testing.T) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.gob")
	const n = 2
	ctx := context.Background()

	c, stores, _ := fleetController(t, tmp, n, nil, nil)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 8; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet(stores); err != nil {
		t.Fatal(err)
	}

	update := func(c *Controller, to int64, commit bool) {
		t.Helper()
		tx := c.Txns().Begin()
		upd := abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(2)}),
			abdl.Modifier{Attr: "x", Val: abdm.Int(to)})
		if _, err := c.ExecCtx(txn.NewContext(ctx, tx), upd); err != nil {
			t.Fatal(err)
		}
		end := c.Txns().Abort
		if commit {
			end = c.Txns().Commit
		}
		if err := end(tx); err != nil {
			t.Fatal(err)
		}
	}

	c2, stores2, _, _, _ := recoverFleet(t, tmp, n, journalPath, nil)
	attachJournalFile(t, c2, journalPath)
	update(c2, 200, false)
	update(c2, 200, true)
	if _, err := c2.CheckpointFleet(stores2); err != nil {
		t.Fatal(err)
	}

	c3, _, _, _, _ := recoverFleet(t, tmp, n, journalPath, nil)
	res, err := c3.Exec(abdl.NewRetrieve(abdm.And(abdm.Predicate{
		Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Errorf("recovered %d rows, want 8", len(res.Records))
	}
	if cnt := countX(t, c3, 2); cnt != 0 {
		t.Errorf("x=2 recovered %d times after it was updated to 200", cnt)
	}
	if cnt := countX(t, c3, 200); cnt != 1 {
		t.Errorf("x=200 recovered %d times, want 1", cnt)
	}
}

// TestFleetCrashBetweenImageCommits drives the fleet checkpoint's worst
// crash window by hand: the barrier fences both stores, store 0's image
// commits at the new position, and the crash hits before store 1's commit
// (and before the marker). Recovery must bring BOTH partitions back to the
// previous barrier — store 0's newer generation is passed over and sealed —
// and replay the whole tail once. Never a blend of positions.
func TestFleetCrashBetweenImageCommits(t *testing.T) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.gob")
	const n = 2

	c, stores, _ := fleetController(t, tmp, n, nil, nil)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 8; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet(stores); err != nil {
		t.Fatal(err)
	}
	for v := int64(9); v <= 14; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}

	// A fleet checkpoint that dies between the two image commits: begin-all
	// under the barrier, flush store 0 only, crash (no marker).
	var (
		epochs = make([]uint64, n)
		pos    uint64
		maxKey int64
	)
	c.txns.WithStampBarrier(func() {
		for i, st := range stores {
			e, err := st.CheckpointBegin()
			if err != nil {
				t.Errorf("begin %d: %v", i, err)
				return
			}
			epochs[i] = e
		}
		c.mu.Lock()
		pos, maxKey = c.jEntries, c.jMaxKey
		c.mu.Unlock()
	})
	if t.Failed() {
		t.FailNow()
	}
	if pos != 14 {
		t.Fatalf("barrier position = %d, want 14", pos)
	}
	if err := stores[0].CheckpointFlush(pager.Meta{Epoch: epochs[0], Entries: pos, MaxKey: maxKey}); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st.CheckpointRelease()
	}

	// On disk: part0 newest at 14, part1 newest at 8. The cut is 8 and every
	// partition mounts there.
	c2, _, metas2, replayed, cut := recoverFleet(t, tmp, n, journalPath, nil)
	if cut != 8 {
		t.Fatalf("fleet cut = %d, want the last complete barrier 8", cut)
	}
	for i, m := range metas2 {
		if m.Entries != 8 {
			t.Fatalf("partition %d mounted at %d entries, want 8 (no blend)", i, m.Entries)
		}
	}
	if replayed != 6 {
		t.Fatalf("recovery replayed %d entries, want the 6-entry tail", replayed)
	}
	for v := int64(1); v <= 14; v++ {
		if cnt := countX(t, c2, v); cnt != 1 {
			t.Fatalf("x=%d recovered %d times, want 1", v, cnt)
		}
	}

	// The abandoned 14-entry generation was sealed at mount: a later
	// unbounded open of part0 must see the 8-entry generation as newest, not
	// resurrect the orphan.
	metas, err := pager.Metas(fleetPath(tmp, 0))
	if err != nil {
		t.Fatal(err)
	}
	if metas[0].Entries != 8 {
		t.Fatalf("part0 newest generation covers %d entries after sealing, want 8", metas[0].Entries)
	}
}

// TestFleetCheckpointBeginFailureAborts: when one store cannot begin (here:
// no paged backing), the whole fleet checkpoint fails and the stores already
// fenced are released — a follow-up checkpoint of the healthy fleet works.
func TestFleetCheckpointBeginFailureAborts(t *testing.T) {
	tmp := t.TempDir()
	c, stores, _ := fleetController(t, tmp, 2, nil, nil)
	if _, err := c.Exec(insertX(1)); err != nil {
		t.Fatal(err)
	}

	dir := abdm.NewDirectory()
	mem := kdb.NewStore(dir) // no backing: CheckpointBegin must fail
	if _, err := c.CheckpointFleet([]*kdb.Store{stores[0], stores[1], mem}); !errors.Is(err, kdb.ErrNoBacking) {
		t.Fatalf("fleet checkpoint with an unbacked store = %v, want ErrNoBacking", err)
	}
	if _, err := c.CheckpointFleet(stores); err != nil {
		t.Fatalf("fleet checkpoint after aborted begin: %v", err)
	}

	if _, err := c.CheckpointFleet(nil); !errors.Is(err, ErrEmptyFleet) {
		t.Fatal("empty fleet checkpoint did not fail")
	}
	if _, err := FleetCut(nil); !errors.Is(err, ErrEmptyFleet) {
		t.Fatal("empty fleet cut did not fail")
	}
}
