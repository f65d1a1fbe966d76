package cdc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kc"
	"mlds/internal/mbds"
)

// newCtrl builds a two-backend controller over file f(x, y) with a
// file-backed journal, the full lossless-tailer configuration.
func newCtrl(t *testing.T) *kc.Controller {
	t.Helper()
	dir := abdm.NewDirectory()
	for _, attr := range []string{"x", "y"} {
		if err := dir.DefineAttr(attr, abdm.KindInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.DefineFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	c := kc.New(sys)
	jf, err := kc.OpenJournalFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jf.Close() })
	return c
}

func insertXY(t *testing.T, c *kc.Controller, x, y int64) {
	t.Helper()
	_, err := c.Exec(abdl.NewInsert(abdm.NewRecord("f",
		abdm.Keyword{Attr: "x", Val: abdm.Int(x)},
		abdm.Keyword{Attr: "y", Val: abdm.Int(y)})))
	if err != nil {
		t.Fatal(err)
	}
}

func updateWhereX(t *testing.T, c *kc.Controller, x int64, mods ...abdl.Modifier) {
	t.Helper()
	q := abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(x)})
	if _, err := c.Exec(abdl.NewUpdate(q, mods...)); err != nil {
		t.Fatal(err)
	}
}

func deleteWhereX(t *testing.T, c *kc.Controller, x int64) {
	t.Helper()
	q := abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(x)})
	if _, err := c.Exec(abdl.NewDelete(q)); err != nil {
		t.Fatal(err)
	}
}

// next reads one change with a deadline.
func next(t *testing.T, w *Watcher) Change {
	t.Helper()
	select {
	case c, ok := <-w.C:
		if !ok {
			t.Fatalf("watch channel closed early: %v", w.Err())
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a change")
	}
	panic("unreachable")
}

// drainLoad consumes the initial load through OpReady and returns the loaded
// row IDs with their x values.
func drainLoad(t *testing.T, w *Watcher) map[uint64]int64 {
	t.Helper()
	rows := make(map[uint64]int64)
	for {
		c := next(t, w)
		switch c.Op {
		case OpLoad:
			v, _ := c.Rec.Get("x")
			rows[c.ID] = v.AsInt()
		case OpReady:
			return rows
		default:
			t.Fatalf("unexpected %s during initial load", c.Op)
		}
	}
}

func TestCompileSelectAndParseQuery(t *testing.T) {
	def, err := ParseQuery("WATCH SELECT x, y FROM f WHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if def.File != "f" || len(def.Cols) != 2 || len(def.Where) != 1 {
		t.Fatalf("def = %+v", def)
	}
	if got := def.String(); got != "SELECT x, y FROM f WHERE ((x >= 2))" &&
		!strings.HasPrefix(got, "SELECT x, y FROM f WHERE") {
		t.Fatalf("String() = %q", got)
	}
	star, err := ParseQuery("SELECT * FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if star.Cols != nil || len(star.Where) != 0 {
		t.Fatalf("star def = %+v", star)
	}
	for _, bad := range []string{
		"SELECT COUNT(*) FROM f",
		"SELECT x FROM f GROUP BY x",
		"SELECT x FROM f ORDER BY x",
		"DELETE FROM f",
		"WATCH nonsense",
	} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestDefMatchesAndProject(t *testing.T) {
	def, err := ParseQuery("SELECT x FROM f WHERE x >= 10")
	if err != nil {
		t.Fatal(err)
	}
	in := abdm.NewRecord("f",
		abdm.Keyword{Attr: "x", Val: abdm.Int(11)},
		abdm.Keyword{Attr: "y", Val: abdm.Int(1)})
	outOf := abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(3)})
	other := abdm.NewRecord("g", abdm.Keyword{Attr: "x", Val: abdm.Int(99)})
	if !def.matches(in) || def.matches(outOf) || def.matches(other) || def.matches(nil) {
		t.Fatal("predicate membership wrong")
	}
	p := def.project(in)
	if p.File() != "f" {
		t.Fatalf("projection lost the FILE keyword: %v", p)
	}
	if _, ok := p.Get("y"); ok {
		t.Fatal("projection kept an unselected column")
	}
	if v, ok := p.Get("x"); !ok || v.AsInt() != 11 {
		t.Fatalf("projection x = %v", v)
	}
}

func TestOpAndChangeStrings(t *testing.T) {
	if OpInsert.String() != "insert" || Op(99).String() != "op(99)" {
		t.Fatal("Op.String wrong")
	}
	rec := abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(1)})
	for _, c := range []Change{
		{Op: OpReady, Epoch: 3},
		{Op: OpResync},
		{Op: OpDelete, File: "f", ID: 7},
		{Op: OpInsert, File: "f", ID: 7, Rec: rec},
		{Op: OpUpdate, File: "f", ID: 7, Rec: nil},
	} {
		if c.String() == "" {
			t.Fatalf("empty String for %v", c.Op)
		}
	}
}

func TestWatcherLoadThenChanges(t *testing.T) {
	ctrl := newCtrl(t)
	insertXY(t, ctrl, 1, 10)
	insertXY(t, ctrl, 2, 20)
	insertXY(t, ctrl, 3, 30)

	def, err := ParseQuery("SELECT x, y FROM f WHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(ctrl, def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	loaded := drainLoad(t, w)
	if len(loaded) != 2 {
		t.Fatalf("initial load = %v, want x=2 and x=3", loaded)
	}

	// A row entering via INSERT.
	insertXY(t, ctrl, 5, 50)
	c := next(t, w)
	if c.Op != OpInsert {
		t.Fatalf("after insert: %v", c)
	}
	if v, _ := c.Rec.Get("x"); v.AsInt() != 5 {
		t.Fatalf("insert image = %v", c.Rec)
	}
	insID := c.ID

	// An UPDATE within the predicate is an update.
	updateWhereX(t, ctrl, 5, abdl.Modifier{Attr: "y", Val: abdm.Int(55)})
	c = next(t, w)
	if c.Op != OpUpdate || c.ID != insID {
		t.Fatalf("in-predicate update: %v", c)
	}
	if v, _ := c.Rec.Get("y"); v.AsInt() != 55 {
		t.Fatalf("update post-image = %v", c.Rec)
	}

	// An UPDATE into the predicate arrives as an insert.
	updateWhereX(t, ctrl, 1, abdl.Modifier{Attr: "x", Val: abdm.Int(12)})
	c = next(t, w)
	if c.Op != OpInsert {
		t.Fatalf("into-predicate update: %v", c)
	}
	movedID := c.ID

	// An UPDATE out of the predicate arrives as a delete.
	updateWhereX(t, ctrl, 12, abdl.Modifier{Attr: "x", Val: abdm.Int(0)})
	c = next(t, w)
	if c.Op != OpDelete || c.ID != movedID || c.Rec != nil {
		t.Fatalf("out-of-predicate update: %v", c)
	}

	// A DELETE of a matching row.
	deleteWhereX(t, ctrl, 5)
	c = next(t, w)
	if c.Op != OpDelete || c.ID != insID {
		t.Fatalf("delete: %v", c)
	}

	// A non-matching row's churn is invisible.
	insertXY(t, ctrl, 0, 1)
	deleteWhereX(t, ctrl, 0)
	// Then a visible marker to prove the invisible ones were skipped.
	insertXY(t, ctrl, 9, 90)
	c = next(t, w)
	if c.Op != OpInsert {
		t.Fatalf("marker insert: %v", c)
	}
	if v, _ := c.Rec.Get("x"); v.AsInt() != 9 {
		t.Fatalf("non-matching churn leaked: %v", c.Rec)
	}

	st := w.Stats()
	if st.Events == 0 || st.Reloads != 1 || st.Pos == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if w.Err() != nil {
		t.Fatalf("live watch has terminal error %v", w.Err())
	}
}

// TestWatcherLossless is the drop-resync contract: a stalled consumer lets
// the commit subscription overflow, and every committed change still arrives
// exactly once, in order, recovered from the journal.
func TestWatcherLossless(t *testing.T) {
	ctrl := newCtrl(t)
	def, err := ParseQuery("SELECT x FROM f")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(ctrl, def, Options{Buffer: 1, SubBuffer: 1, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const n = 200
	// Nobody drains the watch: after a couple of events the watcher goroutine
	// blocks, the 1-deep subscription overflows, and the tailer must recover
	// the dropped range from the journal file.
	for i := int64(1); i <= n; i++ {
		insertXY(t, ctrl, i, 0)
	}

	seen := make(map[int64]int)
	var lastPos uint64
	ready := false
	for len(seen) < n {
		c := next(t, w)
		switch c.Op {
		case OpLoad:
			// Rows committed before the (late) snapshot load.
			v, _ := c.Rec.Get("x")
			seen[v.AsInt()]++
		case OpReady:
			ready = true
		case OpInsert:
			v, _ := c.Rec.Get("x")
			seen[v.AsInt()]++
			if c.Pos <= lastPos {
				t.Fatalf("position went backwards: %d after %d", c.Pos, lastPos)
			}
			lastPos = c.Pos
		case OpResync:
			// Journal compaction never happens here; resyncs are internal.
			t.Fatalf("unexpected resync")
		default:
			t.Fatalf("unexpected %s", c.Op)
		}
	}
	if !ready {
		t.Fatal("no OpReady before the changes")
	}
	for i := int64(1); i <= n; i++ {
		if seen[i] != 1 {
			t.Fatalf("x=%d delivered %d times, want exactly once", i, seen[i])
		}
	}
	st := w.Stats()
	if st.Dropped == 0 || st.Resyncs == 0 {
		t.Fatalf("expected drops and resyncs with a 1-deep subscription: %+v", st)
	}
}

func TestTailerDirect(t *testing.T) {
	ctrl := newCtrl(t)
	tl := NewTailer(ctrl, 16, time.Millisecond)
	tl.Reset(0)
	defer tl.Close()

	for i := int64(1); i <= 5; i++ {
		insertXY(t, ctrl, i, 0)
	}
	quit := make(chan struct{})
	var got []Entry
	for len(got) < 5 {
		batch, err := tl.Next(quit)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	for i, e := range got {
		if e.Pos != uint64(i+1) {
			t.Fatalf("entry %d at position %d", i, e.Pos)
		}
		if e.Txn == 0 {
			t.Fatalf("entry %d lost its transaction id", i)
		}
	}
	st := tl.Stats()
	if st.Pos != 5 || st.Delivered != 5 {
		t.Fatalf("stats = %+v", st)
	}

	// Close makes Next return ErrClosed.
	tl.Close()
	if _, err := tl.Next(quit); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v", err)
	}
}

func TestTailerQuit(t *testing.T) {
	ctrl := newCtrl(t)
	tl := NewTailer(ctrl, 16, time.Hour)
	tl.Reset(0)
	defer tl.Close()
	quit := make(chan struct{})
	close(quit)
	if _, err := tl.Next(quit); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next with closed quit = %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	ctrl := newCtrl(t)
	if _, err := Open(ctrl, Def{}, Options{}); err == nil {
		t.Fatal("empty definition accepted")
	}
	if _, err := OpenView(ctrl, "v", Def{}, Options{}); err == nil {
		t.Fatal("empty view definition accepted")
	}
	if _, err := OpenView(ctrl, "v", Def{File: "nosuch"}, Options{}); err == nil {
		t.Fatal("view over an unknown file accepted")
	}
	if _, err := OpenView(ctrl, "v", Def{File: "f", Cols: []string{"zz"}}, Options{}); err == nil {
		t.Fatal("view over an unknown attribute accepted")
	}
}

// recompute answers the view query directly against the kernel.
func recompute(t *testing.T, ctrl *kc.Controller, minX int64) []string {
	t.Helper()
	res, err := ctrl.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(minX)}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sr := range res.Records {
		x, _ := sr.Rec.Get("x")
		y, _ := sr.Rec.Get("y")
		out = append(out, fmt.Sprintf("%d:%d=%d", sr.ID, x.AsInt(), y.AsInt()))
	}
	sort.Strings(out)
	return out
}

func viewRows(v *View) []string {
	var out []string
	for _, sr := range v.Rows() {
		x, _ := sr.Rec.Get("x")
		y, _ := sr.Rec.Get("y")
		out = append(out, fmt.Sprintf("%d:%d=%d", sr.ID, x.AsInt(), y.AsInt()))
	}
	sort.Strings(out)
	return out
}

// TestViewMatchesRecompute holds the view's defining equality — incremental
// contents == full recomputation — across inserts, updates (including
// membership transitions) and deletes.
func TestViewMatchesRecompute(t *testing.T) {
	ctrl := newCtrl(t)
	insertXY(t, ctrl, 1, 10)
	insertXY(t, ctrl, 5, 50)

	def, err := ParseQuery("SELECT x, y FROM f WHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(ctrl, "big", def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	<-v.Ready()
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}

	check := func(phase string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := v.WaitCaughtUp(ctx); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		want := recompute(t, ctrl, 2)
		got := viewRows(v)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: view %v != recompute %v", phase, got, want)
		}
	}
	check("initial load")

	insertXY(t, ctrl, 7, 70)
	check("after insert")

	updateWhereX(t, ctrl, 7, abdl.Modifier{Attr: "y", Val: abdm.Int(71)})
	check("after update")

	updateWhereX(t, ctrl, 1, abdl.Modifier{Attr: "x", Val: abdm.Int(3)}) // into the view
	check("after membership entry")

	updateWhereX(t, ctrl, 5, abdl.Modifier{Attr: "x", Val: abdm.Int(0)}) // out of the view
	check("after membership exit")

	deleteWhereX(t, ctrl, 7)
	check("after delete")

	st := v.Stats()
	if st.Events == 0 || st.Reloads != 1 {
		t.Fatalf("view stats = %+v", st)
	}
	if v.Pos() == 0 {
		t.Fatal("view position never advanced")
	}
}

func TestPipe(t *testing.T) {
	closed := 0
	w := NewPipe(func() { closed++ })
	w.Feed(Change{Op: OpLoad, ID: 1})
	w.Feed(Change{Op: OpReady, Epoch: 2})
	w.Feed(Change{Op: OpInsert, ID: 3})
	for i, want := range []Op{OpLoad, OpReady, OpInsert} {
		c := next(t, w)
		if c.Op != want {
			t.Fatalf("event %d = %s, want %s", i, c.Op, want)
		}
	}
	// Consumer-side close runs onClose exactly once and closes C.
	w.Close()
	w.Close()
	// The pump counts an event just after its send, so the count is read
	// once Close has waited for the pump to stop.
	if st := w.Stats(); st.Events != 3 {
		t.Fatalf("pipe stats = %+v", st)
	}
	if closed != 1 {
		t.Fatalf("onClose ran %d times", closed)
	}
	if _, ok := <-w.C; ok {
		t.Fatal("C still open after Close")
	}
	// Feeding a closed pipe is a no-op.
	w.Feed(Change{Op: OpInsert})
	if w.Err() != nil {
		t.Fatalf("clean close left error %v", w.Err())
	}
}

func TestPipeFail(t *testing.T) {
	w := NewPipe(nil)
	w.Feed(Change{Op: OpReady})
	boom := errors.New("conn lost")
	w.Fail(boom)
	// Buffered events drain before C closes.
	if c := next(t, w); c.Op != OpReady {
		t.Fatalf("buffered event = %v", c)
	}
	if _, ok := <-w.C; ok {
		t.Fatal("C open after Fail")
	}
	if !errors.Is(w.Err(), boom) {
		t.Fatalf("Err = %v", w.Err())
	}
	w.Close()
}

func TestPipeCleanServerClose(t *testing.T) {
	w := NewPipe(nil)
	w.Fail(nil)
	if _, ok := <-w.C; ok {
		t.Fatal("C open after clean Fail(nil)")
	}
	if w.Err() != nil {
		t.Fatalf("Err = %v", w.Err())
	}
}

// newBareCtrl builds a controller with NO journal file attached — the
// default production configuration (embedded systems and cmd/mldsserver
// attach none). Change capture must still work there: the sink counts
// positions without a file, and a dropped range that cannot be re-read
// rebuilds from a fresh snapshot (OpResync + reload).
func newBareCtrl(t *testing.T) *kc.Controller {
	t.Helper()
	dir := abdm.NewDirectory()
	for _, attr := range []string{"x", "y"} {
		if err := dir.DefineAttr(attr, abdm.KindInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.DefineFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return kc.New(sys)
}

// TestWatchNoJournalFile is the production-default regression: a watch on a
// controller without a journal file must deliver the load and then live
// inserts, updates and deletes — positions counted by the sink alone.
func TestWatchNoJournalFile(t *testing.T) {
	c := newBareCtrl(t)
	insertXY(t, c, 1, 10)
	def, err := ParseQuery("WATCH SELECT x, y FROM f WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(c, def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rows := drainLoad(t, w); len(rows) != 1 {
		t.Fatalf("load = %v, want 1 row", rows)
	}

	insertXY(t, c, 2, 20)
	if ch := next(t, w); ch.Op != OpInsert {
		t.Fatalf("after insert: %s", ch)
	} else if v, _ := ch.Rec.Get("x"); v.AsInt() != 2 {
		t.Fatalf("insert carried %s", ch)
	}
	updateWhereX(t, c, 2, abdl.Modifier{Attr: "y", Val: abdm.Int(21)})
	if ch := next(t, w); ch.Op != OpUpdate {
		t.Fatalf("after update: %s", ch)
	}
	deleteWhereX(t, c, 1)
	if ch := next(t, w); ch.Op != OpDelete {
		t.Fatalf("after delete: %s", ch)
	}
	if st := w.Stats(); st.Pos == 0 || st.Dropped != 0 {
		t.Fatalf("stats %+v: want counted positions and no drops", st)
	}
}

// TestWatchNoJournalDropRebuilds forces a subscription overflow on a
// journal-less controller: the dropped range cannot be re-read from disk, so
// the watch must announce OpResync and rebuild from a fresh snapshot — and
// still converge to every committed row, with live delivery working after.
func TestWatchNoJournalDropRebuilds(t *testing.T) {
	c := newBareCtrl(t)
	def, err := ParseQuery("WATCH SELECT x, y FROM f WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(c, def, Options{Buffer: 1, SubBuffer: 1, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	drainLoad(t, w)

	// Burst without consuming: the one-slot subscription must drop.
	want := make(map[int64]bool)
	for x := int64(1); x <= 64; x++ {
		insertXY(t, c, x, 0)
		want[x] = true
		if w.Stats().Dropped > 0 {
			break
		}
	}
	if w.Stats().Dropped == 0 {
		t.Fatalf("64-insert burst never overflowed the one-slot subscription (stats %+v)", w.Stats())
	}

	// Consume: inserts and at least one OpResync + reload, converging on
	// exactly the committed set.
	got := make(map[int64]bool)
	ready, resyncs := true, 0
	record := func(ch Change) {
		v, _ := ch.Rec.Get("x")
		got[v.AsInt()] = true
	}
	deadline := time.After(20 * time.Second)
	for len(got) < len(want) || !ready {
		select {
		case ch, ok := <-w.C:
			if !ok {
				t.Fatalf("watch closed early: %v", w.Err())
			}
			switch ch.Op {
			case OpInsert:
				if !ready {
					t.Fatalf("insert during reload: %s", ch)
				}
				record(ch)
			case OpResync:
				// The reload repeats initial state: start over.
				ready, resyncs = false, resyncs+1
				got = make(map[int64]bool)
			case OpLoad:
				if ready {
					t.Fatalf("load row outside a reload: %s", ch)
				}
				record(ch)
			case OpReady:
				ready = true
			default:
				t.Fatalf("unexpected %s", ch)
			}
		case <-deadline:
			t.Fatalf("no convergence: %d/%d rows, ready=%v, resyncs=%d (stats %+v)",
				len(got), len(want), ready, resyncs, w.Stats())
		}
	}
	if resyncs == 0 {
		t.Fatalf("drop never forced a rebuild (stats %+v)", w.Stats())
	}
	for x := range want {
		if !got[x] {
			t.Fatalf("row %d lost after rebuild", x)
		}
	}

	// Live delivery resumes after the rebuild.
	insertXY(t, c, 999, 0)
	for {
		ch := next(t, w)
		if ch.Op == OpInsert {
			if v, _ := ch.Rec.Get("x"); v.AsInt() == 999 {
				return
			}
			continue
		}
		if ch.Op == OpResync || ch.Op == OpLoad || ch.Op == OpReady {
			continue // a trailing rebuild may still be in flight
		}
		t.Fatalf("unexpected %s after rebuild", ch)
	}
}
