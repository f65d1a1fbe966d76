package core

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

func TestSaveRestoreFunctionalDatabase(t *testing.T) {
	s1 := newSystem(t)
	db1 := newLoadedUniv(t, s1)

	// Mutate state through both interfaces so the image reflects live data.
	dml, err := s1.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"MOVE 'Persisted Person' TO pname IN person",
		"MOVE 424242424 TO ssn IN person",
		"STORE person",
	} {
		if _, err := dml.Execute(line); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := db1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh system with a different backend count.
	s2 := NewSystem(Config{Kernel: kernelWith(3)})
	t.Cleanup(s2.Close)
	db2, err := s2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Name != "university" || db2.Model != FunctionalModel {
		t.Fatalf("restored db = %+v", db2)
	}
	if db1.Kernel.Len() != db2.Kernel.Len() {
		t.Fatalf("record counts: %d vs %d", db1.Kernel.Len(), db2.Kernel.Len())
	}

	// The stored person survives with its data.
	dml2, err := s2.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dml2.Execute("MOVE 424242424 TO ssn IN person"); err != nil {
		t.Fatal(err)
	}
	out, err := dml2.Execute("FIND ANY person USING ssn IN person")
	if err != nil {
		t.Fatal(err)
	}
	if !out.DML.Found {
		t.Fatal("persisted person lost")
	}
	got, err := dml2.Execute("GET pname IN person")
	if err != nil {
		t.Fatal(err)
	}
	if got.DML.Values["pname"].AsString() != "Persisted Person" {
		t.Errorf("restored values = %v", got.DML.Values)
	}

	// Key allocation resumes past restored keys: a new STORE must not
	// collide with any existing entity key.
	for _, line := range []string{
		"MOVE 'After Restore' TO pname IN person",
		"MOVE 424242425 TO ssn IN person",
	} {
		if _, err := dml2.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	st, err := dml2.Execute("STORE person")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int64]bool{}
	snap, err := db2.Kernel.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range snap {
		if sr.Rec.File() != "person" {
			continue
		}
		if v, ok := sr.Rec.Get("person"); ok {
			if keys[v.AsInt()] && v.AsInt() == st.DML.Key {
				// the new key appearing once is fine; collision means the
				// same key on two different ssn values — checked below
				continue
			}
			keys[v.AsInt()] = true
		}
	}
	if !keys[st.DML.Key] {
		t.Error("new person record missing from snapshot")
	}

	// Daplex sees the restored data identically.
	dap, err := s2.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dap.Execute("FOR EACH student WHERE major = 'Computer Science' PRINT pname;")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows.Rows {
		names = append(names, r.Values["pname"][0].AsString())
	}
	sort.Strings(names)
	if len(names) != 6 {
		t.Errorf("restored CS students = %v", names)
	}
}

func TestSaveRestoreNetworkDatabase(t *testing.T) {
	s1 := newSystem(t)
	db1, err := s1.CreateNetwork("shop", `
SCHEMA NAME IS shop
RECORD NAME IS emp
    02 ename TYPE IS CHARACTER 20
    02 pay TYPE IS FIXED
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s1.Open("shop", "dml")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"MOVE 'Ann' TO ename IN emp",
		"MOVE 900 TO pay IN emp",
		"STORE emp",
	} {
		if _, err := sess.Execute(line); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newSystem(t)
	db2, err := s2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Model != NetworkModel || db2.Kernel.Len() != 1 {
		t.Fatalf("restored = %+v len=%d", db2.Model, db2.Kernel.Len())
	}
	sess2, err := s2.Open("shop", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Execute("MOVE 'Ann' TO ename IN emp"); err != nil {
		t.Fatal(err)
	}
	out, err := sess2.Execute("FIND ANY emp USING ename IN emp")
	if err != nil {
		t.Fatal(err)
	}
	if !out.DML.Found {
		t.Error("restored network record lost")
	}
}

func TestRestoreGarbage(t *testing.T) {
	s := newSystem(t)
	if _, err := s.Restore(bytes.NewBufferString("not an image")); err == nil {
		t.Error("garbage image accepted")
	}
	// A truncated image is refused too, wherever the cut falls.
	db, err := s.CreateRelational("shop", "CREATE TABLE t (a INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO t (a) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < img.Len(); cut++ {
		if _, err := newSystem(t).Restore(bytes.NewReader(img.Bytes()[:cut])); err == nil {
			t.Fatalf("image cut at byte %d of %d accepted", cut, img.Len())
		}
	}
}

// TestImagePlusJournalRecovery is the production recovery story: restore the
// last saved image, then replay the journal of mutations made since.
func TestImagePlusJournalRecovery(t *testing.T) {
	s1 := newSystem(t)
	db1 := newLoadedUniv(t, s1)

	// Checkpoint.
	var img bytes.Buffer
	if err := db1.Save(&img); err != nil {
		t.Fatal(err)
	}
	// Journal subsequent session mutations.
	var journal bytes.Buffer
	db1.Ctrl.AttachJournal(&journal)
	dml, err := s1.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"MOVE 'Post Checkpoint' TO pname IN person",
		"MOVE 777000111 TO ssn IN person",
		"STORE person",
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
		"MOVE 6 TO credits IN course",
		"MODIFY credits IN course",
	} {
		if _, err := dml.Execute(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}

	// "Crash": recover into a fresh system from image + journal.
	s2 := newSystem(t)
	db2, err := s2.Restore(&img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Ctrl.RecoverJournal(&journal); err != nil {
		t.Fatal(err)
	}
	dml2, err := s2.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dml2.Execute("MOVE 777000111 TO ssn IN person"); err != nil {
		t.Fatal(err)
	}
	out, err := dml2.Execute("FIND ANY person USING ssn IN person")
	if err != nil {
		t.Fatal(err)
	}
	if !out.DML.Found {
		t.Error("journalled STORE lost in recovery")
	}
	if _, err := dml2.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		t.Fatal(err)
	}
	if _, err := dml2.Execute("FIND ANY course USING title IN course"); err != nil {
		t.Fatal(err)
	}
	got, err := dml2.Execute("GET credits IN course")
	if err != nil {
		t.Fatal(err)
	}
	if got.DML.Values["credits"].AsInt() != 6 {
		t.Errorf("journalled MODIFY lost: credits = %v", got.DML.Values)
	}
}

// TestImagePlusJournalTornTransaction: a crash that cuts the journal between
// the two data entries of a two-UPDATE transaction — before its commit
// marker — recovers neither UPDATE on top of the image.
func TestImagePlusJournalTornTransaction(t *testing.T) {
	s1 := newSystem(t)
	db1, err := s1.CreateRelational("bank", "CREATE TABLE acct (id INTEGER, balance INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s1.Open("bank", "sql")
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"INSERT INTO acct (id, balance) VALUES (1, 100)",
		"INSERT INTO acct (id, balance) VALUES (2, 100)",
	} {
		if _, err := sess.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if err := db1.Save(&img); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	db1.Ctrl.AttachJournal(&journal)
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"UPDATE acct SET balance = 70 WHERE id = 1",
		"UPDATE acct SET balance = 130 WHERE id = 2",
	} {
		if _, err := sess.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}

	// The journal is a 5-byte header, then length-prefixed frames: the
	// first UPDATE, the second, the commit marker. Cut after the first.
	full := journal.Bytes()
	cut := 5 + 4 + int(binary.LittleEndian.Uint32(full[5:]))
	if cut >= len(full) {
		t.Fatalf("journal of %d bytes has no second entry past byte %d", len(full), cut)
	}

	balances := func(journal []byte) []int64 {
		t.Helper()
		s2 := newSystem(t)
		db2, err := s2.Restore(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db2.Ctrl.RecoverJournal(bytes.NewReader(journal)); err != nil {
			t.Fatal(err)
		}
		sess2, err := s2.Open("bank", "sql")
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess2.Execute("SELECT id, balance FROM acct")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, 3)
		for _, row := range out.SQL.Rows {
			got[row[0].AsInt()] = row[1].AsInt()
		}
		return got[1:]
	}
	if got := balances(full[:cut]); got[0] != 100 || got[1] != 100 {
		t.Fatalf("torn transaction recovered in part: balances %v, want [100 100]", got)
	}
	if got := balances(full); got[0] != 70 || got[1] != 130 {
		t.Fatalf("committed transaction lost: balances %v, want [70 130]", got)
	}
}
