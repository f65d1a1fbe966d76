package kc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/pager"
)

// backedController builds a single-backend controller whose partition lives
// in the page file at pagePath. When the file exists it is opened (recovery
// path) and the image metadata is returned; otherwise it is created fresh.
func backedController(t *testing.T, pagePath string) (*Controller, *kdb.Store, pager.Meta) {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	var meta pager.Meta
	cfg := mbds.DefaultConfig(1)
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		if _, err := os.Stat(pagePath); err == nil {
			st, m, err := kdb.OpenBacked(pagePath, d, opts...)
			meta = m
			return st, err
		}
		return kdb.CreateBacked(pagePath, d, opts...)
	}
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NextID > 0 {
		sys.SeedIDs(meta.NextID)
	}
	st := sys.Store(0)
	if st == nil || !st.Backed() {
		t.Fatal("backend 0 has no paged backing")
	}
	t.Cleanup(func() {
		st.CloseBacking()
		sys.Close()
	})
	return New(sys), st, meta
}

// recoverBacked reopens the page file and journal after a crash: mount the
// image, replay only the journal tail past it, and seed the controller for
// further checkpoints. Returns the controller plus the replayed-entry count.
func recoverBacked(t *testing.T, pagePath, journalPath string) (*Controller, *kdb.Store, int) {
	t.Helper()
	c, st, meta := backedController(t, pagePath)
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replayed, total, err := c.RecoverJournalFrom(f, meta.Entries)
	if err != nil {
		t.Fatal(err)
	}
	c.SeedRecovery(meta, total)
	return c, st, replayed
}

func attachJournalFile(t *testing.T, c *Controller, journalPath string) {
	t.Helper()
	jf, err := OpenJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jf.Close() })
}

// TestCheckpointBoundsRecovery is the end-to-end acceptance path: commit,
// checkpoint, commit a tail, crash, and recover — the replay must apply
// exactly the tail past the checkpoint, never the covered prefix.
func TestCheckpointBoundsRecovery(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 10; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A non-idempotent mutation before the checkpoint: if recovery ever
	// replayed the covered prefix, this update would re-fire against the
	// restored state and corrupt it.
	if _, err := c.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(3)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(30)})); err != nil {
		t.Fatal(err)
	}

	info, err := c.CheckpointFleet([]*kdb.Store{st})
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Entries != 11 {
		t.Fatalf("checkpoint covers %d entries, want 11", info.Meta.Entries)
	}
	if !info.Rotated || info.Tail != 0 {
		t.Fatalf("checkpoint with no tail: rotated=%v tail=%d, want rotation", info.Rotated, info.Tail)
	}

	// The tail past the checkpoint: three inserts and one update.
	for v := int64(11); v <= 13; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(30)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(31)})); err != nil {
		t.Fatal(err)
	}

	// Crash: nothing else is flushed or committed.
	c2, _, replayed := recoverBacked(t, pagePath, journalPath)
	if replayed != 4 {
		t.Fatalf("recovery replayed %d entries, want exactly the 4-entry tail", replayed)
	}
	for v := int64(1); v <= 13; v++ {
		want := 1
		if v == 3 { // updated twice: 3 → 30 → 31
			want = 0
		}
		if n := countX(t, c2, v); n != want {
			t.Fatalf("x=%d recovered %d times, want %d", v, n, want)
		}
	}
	if n := countX(t, c2, 31); n != 1 {
		t.Fatalf("tail update recovered %d times, want 1", n)
	}
	if n := countX(t, c2, 30); n != 0 {
		t.Fatal("pre-checkpoint update value resurfaced: covered prefix was replayed")
	}
}

// TestReplayShrinksWithCheckpointInterval: loading the same records under
// tighter checkpoint cadences leaves a crash strictly less journal to
// replay, never more than one interval, and every recovery is exact.
func TestReplayShrinksWithCheckpointInterval(t *testing.T) {
	const n = 100
	prev := n + 1
	for _, interval := range []int{0, 40, 15} {
		tmp := t.TempDir()
		pagePath := filepath.Join(tmp, "part0.pgf")
		journalPath := filepath.Join(tmp, "journal.gob")
		c, st, _ := backedController(t, pagePath)
		attachJournalFile(t, c, journalPath)
		for v := int64(1); v <= n; v++ {
			if _, err := c.Exec(insertX(v)); err != nil {
				t.Fatal(err)
			}
			if interval > 0 && v%int64(interval) == 0 {
				if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
					t.Fatal(err)
				}
			}
		}

		c2, _, replayed := recoverBacked(t, pagePath, journalPath)
		bound := n
		if interval > 0 {
			bound = interval
		}
		if replayed > bound || replayed >= prev {
			t.Fatalf("interval %d: replayed %d entries, want at most %d and fewer than the looser cadence's %d",
				interval, replayed, bound, prev)
		}
		prev = replayed
		res, err := c2.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")}), "x"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != n {
			t.Fatalf("interval %d: recovered %d records, want %d", interval, len(res.Records), n)
		}
	}
}

// TestCheckpointAfterRecovery: a recovered controller checkpoints again, and
// the next recovery replays nothing.
func TestCheckpointAfterRecovery(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 5; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}
	for v := int64(6); v <= 8; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}

	c2, st2, replayed := recoverBacked(t, pagePath, journalPath)
	if replayed != 3 {
		t.Fatalf("first recovery replayed %d, want 3", replayed)
	}
	info, err := c2.CheckpointFleet([]*kdb.Store{st2})
	if err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	if info.Meta.Entries != 8 {
		t.Fatalf("post-recovery checkpoint covers %d entries, want 8", info.Meta.Entries)
	}
	attachJournalFile(t, c2, journalPath)
	for v := int64(9); v <= 10; v++ {
		if _, err := c2.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c2.CheckpointFleet([]*kdb.Store{st2}); err != nil {
		t.Fatal(err)
	}

	c3, _, replayed := recoverBacked(t, pagePath, journalPath)
	if replayed != 0 {
		t.Fatalf("recovery after clean checkpoint replayed %d entries, want 0", replayed)
	}
	for v := int64(1); v <= 10; v++ {
		if n := countX(t, c3, v); n != 1 {
			t.Fatalf("x=%d recovered %d times", v, n)
		}
	}
}

// TestCheckpointUnaligned: mounting an image without seeding the controller
// (SeedRecovery) leaves the commit epoch with no journal pairing — the
// checkpoint must refuse rather than guess a position.
func TestCheckpointUnaligned(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 3; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}

	// Remount the image but skip SeedRecovery: the image's epoch is unknown
	// to the fresh controller.
	c2, st2, _ := backedController(t, pagePath)
	if _, err := c2.CheckpointFleet([]*kdb.Store{st2}); !errors.Is(err, ErrCheckpointUnaligned) {
		t.Fatalf("checkpoint without SeedRecovery = %v, want ErrCheckpointUnaligned", err)
	}
}

// TestRecoveryRefusesMismatchedImage: a rotated journal's leading checkpoint
// marker claims a prefix the image does not cover — replaying it against a
// fresh (empty) store must fail loudly, not silently lose the prefix.
func TestRecoveryRefusesMismatchedImage(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 4; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newController(t)
	if _, _, err := fresh.RecoverJournalFrom(bytes.NewReader(data), 0); err == nil {
		t.Fatal("rotated journal accepted against an image that covers none of it")
	}
}

// TestCheckpointerDoesNotStallCommits runs a background checkpoint loop at
// an aggressive interval under a stream of commits: every commit must
// succeed, no checkpoint may error, and the final state must recover exactly.
func TestCheckpointerDoesNotStallCommits(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	stopCh := make(chan struct{})
	ckptErr := make(chan error, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var first error
		defer func() { ckptErr <- first }()
		for {
			select {
			case <-tick.C:
				if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil && first == nil {
					first = err
				}
			case <-stopCh:
				return
			}
		}
	}()
	stop := func() error { close(stopCh); return <-ckptErr }
	const n = 60
	for v := int64(1); v <= n; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			stop()
			t.Fatalf("commit under background checkpointing: %v", err)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("background checkpoint: %v", err)
	}
	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}

	c2, _, _ := recoverBacked(t, pagePath, journalPath)
	for v := int64(1); v <= n; v++ {
		if cnt := countX(t, c2, v); cnt != 1 {
			t.Fatalf("x=%d recovered %d times after checkpointed run", v, cnt)
		}
	}
}

// TestCheckpointFleetUnaligned: a fleet checkpoint on a remounted image whose
// controller was not seeded must refuse, not commit a generation stamped
// below the image's own journal position — recovery could then no longer
// reach the entries committed after the first checkpoint.
func TestCheckpointFleetUnaligned(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.mldj")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	for v := int64(1); v <= 3; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if info, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil || info.Meta.Entries != 3 {
		t.Fatalf("first checkpoint = %+v, %v; want 3 entries", info.Meta, err)
	}
	for v := int64(4); v <= 5; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}

	c2, st2, _ := backedController(t, pagePath)
	for i := 0; i < 2; i++ { // the second try finds the fence lifted
		if _, err := c2.CheckpointFleet([]*kdb.Store{st2}); !errors.Is(err, ErrCheckpointUnaligned) {
			t.Fatalf("try %d: fleet checkpoint without SeedRecovery = %v, want ErrCheckpointUnaligned", i, err)
		}
	}

	c3, _, replayed := recoverBacked(t, pagePath, journalPath)
	if replayed != 2 {
		t.Fatalf("recovery replayed %d entries, want the 2-entry tail", replayed)
	}
	for v := int64(1); v <= 5; v++ {
		if n := countX(t, c3, v); n != 1 {
			t.Fatalf("x=%d recovered %d times, want 1", v, n)
		}
	}
}
