package kc

import (
	"context"
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

// smallPagedController is backedController with the page file tuned so the
// whole file stays a few KiB: the torn-write matrix below replays a
// byte-granular crash sweep over it.
func smallPagedController(t *testing.T, pagePath string) (*Controller, *kdb.Store) {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	cfg := mbds.DefaultConfig(1)
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		opts = append(opts, kdb.WithPageSize(pager.MinPageSize), kdb.WithPoolPages(4))
		return kdb.CreateBacked(pagePath, d, opts...)
	}
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Store(0)
	t.Cleanup(func() {
		st.CloseBacking()
		sys.Close()
	})
	return New(sys), st
}

// TestRecoveryMatrixTornIndexPages sweeps a crash through the page file
// itself, at every byte of the window a checkpoint writes: heap writebacks,
// the persisted index's blob pages, everything up to — but not including —
// the superblock flip. The copy-on-write contract says any such torn state
// still mounts the PREVIOUS generation exactly, the journal tail replays,
// and the database equals the post-crash-window committed state. The final
// iteration flips the superblock too (crash after commit, before journal
// rotation) and must replay nothing.
func TestRecoveryMatrixTornIndexPages(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st := smallPagedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	ctx := context.Background()

	// Transaction A, captured by checkpoint 1: x=1 and x=2.
	a := c.Txns().Begin()
	actx := txn.NewContext(ctx, a)
	for _, v := range []int64{1, 2} {
		if _, err := c.ExecCtx(actx, insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Txns().Commit(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}
	s1, err := os.ReadFile(pagePath)
	if err != nil {
		t.Fatal(err)
	}

	// Transaction C, the tail checkpoint 2 will try to capture: insert x=4,
	// rewrite x=1 to x=5.
	cw := c.Txns().Begin()
	cctx := txn.NewContext(ctx, cw)
	if _, err := c.ExecCtx(cctx, insertX(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecCtx(cctx, abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(5)})); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(cw); err != nil {
		t.Fatal(err)
	}
	// The journal as the crash sees it: checkpoint 1's marker plus C's
	// frames. Checkpoint 2 crashes before rotating it.
	jMid, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.CheckpointFleet([]*kdb.Store{st}); err != nil {
		t.Fatal(err)
	}
	s2, err := os.ReadFile(pagePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2) <= len(s1) {
		t.Fatalf("checkpoint 2 appended nothing: %d -> %d bytes", len(s1), len(s2))
	}

	// A torn file is checkpoint 2's data region under checkpoint 1's
	// superblocks (pages are fsynced before the superblock flips, so every
	// real crash state has the old superblocks), truncated at the crash byte.
	super := 2 * pager.MinPageSize
	verify := func(t *testing.T, file []byte, wantReplayed int, label string) {
		t.Helper()
		dir := t.TempDir()
		pp := filepath.Join(dir, "part0.pgf")
		jp := filepath.Join(dir, "journal.gob")
		if err := os.WriteFile(pp, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jp, jMid, 0o644); err != nil {
			t.Fatal(err)
		}
		c2, _, replayed := recoverBacked(t, pp, jp)
		if replayed != wantReplayed {
			t.Fatalf("%s: replayed %d entries, want %d", label, replayed, wantReplayed)
		}
		for v, want := range map[int64]int{1: 0, 2: 1, 4: 1, 5: 1} {
			if n := countX(t, c2, v); n != want {
				t.Fatalf("%s: x=%d recovered %d times, want %d", label, v, n, want)
			}
		}
	}
	for cut := len(s1); cut <= len(s2); cut++ {
		torn := append([]byte{}, s1[:super]...)
		torn = append(torn, s2[super:cut]...)
		verify(t, torn, 2, "torn cut at byte "+itoa(cut))
	}
	// Superblock flipped, journal not yet rotated: the image covers C, so
	// nothing replays.
	verify(t, s2, 0, "committed superblock")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestRecoveryMatrixFleetBarrier extends the truncate-at-every-byte matrix
// to the coordinated fleet checkpoint: two paged partitions behind one
// journal checkpoint at a barrier, a transaction commits past it, and the
// journal is cut at every byte — inside the barrier marker, inside the
// transaction's frames, everywhere. Every cut must recover BOTH partitions
// to the barrier state or to the tail transaction's state, never a blend,
// and never replay the barrier-covered prefix.
func TestRecoveryMatrixFleetBarrier(t *testing.T) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.gob")
	const n = 2

	c, stores, _ := fleetController(t, tmp, n, nil, nil)
	attachJournalFile(t, c, journalPath)
	ctx := context.Background()

	a := c.Txns().Begin()
	actx := txn.NewContext(ctx, a)
	for _, v := range []int64{1, 2} {
		if _, err := c.ExecCtx(actx, insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Txns().Commit(a); err != nil {
		t.Fatal(err)
	}

	info, err := c.CheckpointFleet(stores)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rotated || info.Meta.Entries != 2 {
		t.Fatalf("fleet checkpoint info = %+v, want rotation covering 2 entries", info)
	}

	cw := c.Txns().Begin()
	cctx := txn.NewContext(ctx, cw)
	if _, err := c.ExecCtx(cctx, insertX(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecCtx(cctx, abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(5)})); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(cw); err != nil {
		t.Fatal(err)
	}

	journal, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, n)
	for i := range images {
		if images[i], err = os.ReadFile(fleetPath(tmp, i)); err != nil {
			t.Fatal(err)
		}
	}

	for cut := 0; cut <= len(journal); cut++ {
		dir := t.TempDir()
		for i := range images {
			if err := os.WriteFile(fleetPath(dir, i), images[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		jp := filepath.Join(dir, "journal.gob")
		if err := os.WriteFile(jp, journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c2, _, _, replayed, barrier := recoverFleet(t, dir, n, jp, nil)
		if barrier != 2 {
			t.Fatalf("cut at byte %d: fleet cut %d, want the barrier 2", cut, barrier)
		}
		if replayed != 0 && replayed != 2 {
			t.Fatalf("cut at byte %d: replayed %d entries, want 0 or the whole commit", cut, replayed)
		}
		if cnt := countX(t, c2, 2); cnt != 1 {
			t.Fatalf("cut at byte %d: barrier-covered record lost (%d copies)", cut, cnt)
		}
		old, upd, ins := countX(t, c2, 1), countX(t, c2, 5), countX(t, c2, 4)
		switch {
		case old == 1 && upd == 0 && ins == 0:
			// Barrier state across both partitions.
		case old == 0 && upd == 1 && ins == 1:
			// Tail transaction recovered whole.
		default:
			t.Fatalf("cut at byte %d: blended state x1=%d x5=%d x4=%d", cut, old, upd, ins)
		}
	}
}
