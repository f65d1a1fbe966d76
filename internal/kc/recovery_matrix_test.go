package kc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/txn"
)

// retrieveX queries file f for records with x = v.
func retrieveXEq(v int64) *abdl.Request {
	return abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(v)}), abdl.AllAttrs)
}

func countX(t *testing.T, c *Controller, v int64) int {
	t.Helper()
	res, err := c.Exec(retrieveXEq(v))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Records)
}

// TestRecoveryMatrixMixedOutcomes extends the torn-tail regression to a
// crash DURING the group-commit flush with every transaction outcome in the
// torn window at once: a committed prefix transaction, an aborted writer, a
// read-only snapshot transaction, and a final committed writer whose commit
// batch the crash tears. The journal is truncated at EVERY byte of the mixed
// window and recovered; at every cut the database must be exactly one of the
// two committed states — never a blend, never anything of the aborted or
// read-only transactions.
func TestRecoveryMatrixMixedOutcomes(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	ctx := context.Background()

	// Prefix transaction A, committed before the crash window: x=1 and x=2.
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
	prefix := journal.Len()

	// Aborted writer B: its insert executes against the kernel and is undone;
	// nothing of it reaches the journal. x=3 must NEVER recover.
	b := c.Txns().Begin()
	if _, err := c.ExecCtx(txn.NewContext(ctx, b), insertX(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Abort(b); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != prefix {
		t.Fatalf("aborted transaction wrote %d journal bytes", journal.Len()-prefix)
	}

	// Read-only snapshot transaction R: reads journal nothing at all.
	beforeRO := journal.Len()
	r := c.Txns().BeginSnapshot()
	if _, _, err := c.Txns().Exec(txn.NewContext(ctx, r), r, retrieveXEq(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(r); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != beforeRO {
		t.Fatalf("read-only transaction wrote %d journal bytes", journal.Len()-beforeRO)
	}

	// Committed writer C, the transaction the crash tears: inserts x=4 and
	// rewrites x=1 to x=5. Its two effects must recover together or not at
	// all — a cut inside its commit batch must leave A's state untouched.
	cw := c.Txns().Begin()
	cctx := txn.NewContext(ctx, cw)
	if _, err := c.ExecCtx(cctx, insertX(4)); err != nil {
		t.Fatal(err)
	}
	up := abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(5)})
	if _, err := c.ExecCtx(cctx, up); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(cw); err != nil {
		t.Fatal(err)
	}

	full := journal.Bytes()
	if prefix >= len(full) {
		t.Fatalf("mixed window is empty: prefix=%d len=%d", prefix, len(full))
	}
	for cut := prefix; cut <= len(full); cut++ {
		c2 := newController(t)
		if _, err := c2.RecoverJournal(bytes.NewReader(full[:cut])); err != nil {
			t.Fatalf("cut at byte %d of [%d,%d]: recover error %v", cut, prefix, len(full), err)
		}
		if n := countX(t, c2, 3); n != 0 {
			t.Fatalf("cut at byte %d: aborted transaction's record recovered", cut)
		}
		if n := countX(t, c2, 2); n != 1 {
			t.Fatalf("cut at byte %d: committed prefix record lost (%d copies)", cut, n)
		}
		old, upd, ins := countX(t, c2, 1), countX(t, c2, 5), countX(t, c2, 4)
		switch {
		case old == 1 && upd == 0 && ins == 0:
			// State as of A: the torn commit left no trace.
		case old == 0 && upd == 1 && ins == 1:
			// State as of C: the whole commit recovered.
		default:
			t.Fatalf("cut at byte %d: blended state x1=%d x5=%d x4=%d", cut, old, upd, ins)
		}
	}
}

// TestRecoveryMatrixConcurrentGroupCommit drives concurrent committing and
// aborting writers (plus snapshot readers) through one journal so the
// group-commit leader batches multiple transactions per flush, then
// truncates the journal at every byte and recovers. The per-transaction
// atomicity invariant must hold at every single cut, whatever interleaving
// the group-commit window produced: each committed writer's record pair is
// recovered completely or not at all, and aborted writers leave no trace.
func TestRecoveryMatrixConcurrentGroupCommit(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	ctx := context.Background()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := c.Txns().Begin()
			tctx := txn.NewContext(ctx, tx)
			for _, v := range []int64{int64(w + 10), int64(w + 110)} {
				if _, err := c.ExecCtx(tctx, insertX(v)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
			if w%2 == 1 { // odd writers abort: nothing of theirs may recover
				if err := c.Txns().Abort(tx); err != nil {
					t.Errorf("writer %d abort: %v", w, err)
				}
				return
			}
			if err := c.Txns().Commit(tx); err != nil {
				t.Errorf("writer %d commit: %v", w, err)
			}
		}(w)
		// Snapshot readers overlap the writers without journalling anything.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := c.Txns().BeginSnapshot()
			_, _, _ = c.Txns().Exec(txn.NewContext(ctx, tx), tx, retrieveXEq(10))
			_ = c.Txns().Commit(tx)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	full := journal.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		c2 := newController(t)
		if _, err := c2.RecoverJournal(bytes.NewReader(full[:cut])); err != nil {
			t.Fatalf("cut at byte %d of %d: recover error %v", cut, len(full), err)
		}
		for w := 0; w < writers; w++ {
			lo, hi := countX(t, c2, int64(w+10)), countX(t, c2, int64(w+110))
			if w%2 == 1 {
				if lo != 0 || hi != 0 {
					t.Fatalf("cut at byte %d: aborted writer %d recovered (%d,%d)", cut, w, lo, hi)
				}
				continue
			}
			if lo != hi {
				t.Fatalf("cut at byte %d: writer %d recovered partially (%d,%d)", cut, w, lo, hi)
			}
			if lo > 1 {
				t.Fatalf("cut at byte %d: writer %d recovered %d times", cut, w, lo)
			}
		}
	}
	// Sanity on the untruncated journal: every committed pair is present.
	c3 := newController(t)
	if _, err := c3.RecoverJournal(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	var present []string
	for w := 0; w < writers; w += 2 {
		if countX(t, c3, int64(w+10)) != 1 {
			t.Errorf("committed writer %d lost on full recovery", w)
		}
		present = append(present, fmt.Sprintf("w%d", w))
	}
	t.Logf("journal=%dB, committed writers recovered: %v", len(full), present)
}

// TestRecoveryMatrixPagedCheckpoint extends the truncate-at-every-byte
// matrix to the paged storage engine: a checkpointed page image plus a
// rotated journal whose head is a checkpoint marker. The journal is cut at
// every byte — inside the marker, inside the post-checkpoint transaction's
// frames, everywhere — and recovered against a copy of the image. At every
// cut the database must be exactly the checkpoint state or exactly the
// post-checkpoint commit's state, with the image's covered prefix never
// replayed.
func TestRecoveryMatrixPagedCheckpoint(t *testing.T) {
	tmp := t.TempDir()
	pagePath := filepath.Join(tmp, "part0.pgf")
	journalPath := filepath.Join(tmp, "journal.gob")

	c, st, _ := backedController(t, pagePath)
	attachJournalFile(t, c, journalPath)
	ctx := context.Background()

	// Transaction A, covered by the checkpoint: x=1 and x=2.
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

	// The crash window this matrix probes FIRST: the image is durable but the
	// journal has not been truncated yet. Recovery must skip the image's
	// covered prefix of the old journal at every cut of it.
	preRotation, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	info, err := c.Checkpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rotated || info.Meta.Entries != 2 {
		t.Fatalf("checkpoint info = %+v, want rotation covering 2 entries", info)
	}

	// Transaction C, past the checkpoint: insert x=4, rewrite x=1 to x=5.
	// Its effects must recover atomically against the image.
	cw := c.Txns().Begin()
	cctx := txn.NewContext(ctx, cw)
	if _, err := c.ExecCtx(cctx, insertX(4)); err != nil {
		t.Fatal(err)
	}
	up := abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(5)})
	if _, err := c.ExecCtx(cctx, up); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(cw); err != nil {
		t.Fatal(err)
	}

	rotated, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(pagePath)
	if err != nil {
		t.Fatal(err)
	}

	recoverCut := func(t *testing.T, journal []byte, cut int) (*Controller, int) {
		t.Helper()
		dir := t.TempDir()
		pp := filepath.Join(dir, "part0.pgf")
		jp := filepath.Join(dir, "journal.gob")
		if err := os.WriteFile(pp, image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jp, journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c2, _, replayed := recoverBacked(t, pp, jp)
		return c2, replayed
	}

	// Crash between image commit and journal truncation: the OLD journal (no
	// checkpoint marker for this image, every entry covered by it) cut at
	// every byte. Nothing may replay, nothing may double-apply.
	for cut := 0; cut <= len(preRotation); cut++ {
		c2, replayed := recoverCut(t, preRotation, cut)
		if replayed != 0 {
			t.Fatalf("pre-rotation cut at byte %d: replayed %d covered entries", cut, replayed)
		}
		for _, v := range []int64{1, 2} {
			if n := countX(t, c2, v); n != 1 {
				t.Fatalf("pre-rotation cut at byte %d: x=%d recovered %d times", cut, v, n)
			}
		}
	}

	// The rotated journal — checkpoint marker head plus transaction C — cut
	// at every byte against the same image.
	for cut := 0; cut <= len(rotated); cut++ {
		c2, replayed := recoverCut(t, rotated, cut)
		if replayed != 0 && replayed != 2 {
			t.Fatalf("cut at byte %d: replayed %d entries, want 0 or the whole 2-entry commit", cut, replayed)
		}
		if n := countX(t, c2, 2); n != 1 {
			t.Fatalf("cut at byte %d: checkpointed record lost (%d copies)", cut, n)
		}
		old, upd, ins := countX(t, c2, 1), countX(t, c2, 5), countX(t, c2, 4)
		switch {
		case old == 1 && upd == 0 && ins == 0:
			// Checkpoint state: the torn tail left no trace.
		case old == 0 && upd == 1 && ins == 1:
			// Transaction C recovered whole.
		default:
			t.Fatalf("cut at byte %d: blended state x1=%d x5=%d x4=%d", cut, old, upd, ins)
		}
	}
}
