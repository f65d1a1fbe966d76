package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// testJournal is a journal exercising every entry field: a data entry with a
// request and affected keys, a commit marker, a checkpoint marker.
func testJournal(t *testing.T) ([]byte, []JournalEntry) {
	t.Helper()
	req := FromRequest(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "id", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "balance", Val: abdm.Int(70)}))
	entries := []JournalEntry{
		{Marker: 0, Txn: 7, Key: -3, Req: &req, Affected: []uint64{4, 9}},
		{Marker: 1, Txn: 7},
		{Marker: 2, Key: 12, CkptEpoch: 5, CkptEntries: 1},
	}
	b := AppendJournalHeader(nil)
	for i := range entries {
		var err error
		if b, err = AppendJournalEntry(b, &entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b, entries
}

// sameEntries compares entries through the deterministic encoder, so nil and
// empty collections (identical on disk) compare equal.
func sameEntries(a, b []JournalEntry) bool {
	enc := func(es []JournalEntry) []byte {
		var out []byte
		for i := range es {
			out, _ = AppendJournalEntry(out, &es[i])
		}
		return out
	}
	return len(a) == len(b) && bytes.Equal(enc(a), enc(b))
}

func readJournal(b []byte) ([]JournalEntry, error) {
	var out []JournalEntry
	err := ReadJournal(bytes.NewReader(b), func(e *JournalEntry) error {
		out = append(out, *e)
		return nil
	})
	return out, err
}

// TestJournalGoldenFrame pins the journal layout byte for byte: journals
// outlive the build that wrote them, so any layout change must bump
// JournalFormat, not silently reorder fields. Regenerate with:
// t.Log(hex.EncodeToString(b)).
func TestJournalGoldenFrame(t *testing.T) {
	b, entries := testJournal(t)
	const golden = "4d4c444a01" + // magic "MLDJ", format 1
		// data: marker 0, txn 7, key -3, the UPDATE request, affected [4 9]
		"3c000000" + "00070501" + "0400000001010269640069020000000000000000" +
		"00010762616c616e6365698c01000000000000000000000000000000000000" +
		"020409" + "0000" +
		"07000000" + "01070000000000" + // commit: marker 1, txn 7
		"07000000" + "02001800000501" // checkpoint: key 12, epoch 5, entries 1
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("journal golden frame drifted:\n got  %s\n want %s", got, golden)
	}
	back, err := readJournal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(back, entries) {
		t.Fatalf("journal round trip mismatch:\n in  %+v\n out %+v", entries, back)
	}
}

// TestJournalTruncation: a cut anywhere — inside the header, inside a frame's
// length prefix or payload — reads as the entries before the cut, never as an
// error.
func TestJournalTruncation(t *testing.T) {
	b, entries := testJournal(t)
	whole := 0
	for cut := 0; cut <= len(b); cut++ {
		got, err := readJournal(b[:cut])
		if err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(b), err)
		}
		if len(got) < whole {
			t.Fatalf("cut at byte %d: %d entries, fewer than a shorter cut's %d", cut, len(got), whole)
		}
		whole = len(got)
		if !sameEntries(got, entries[:len(got)]) {
			t.Fatalf("cut at byte %d: entries %+v are not a prefix", cut, got)
		}
	}
	if whole != len(entries) {
		t.Fatalf("untruncated journal read %d entries, want %d", whole, len(entries))
	}
}

// TestJournalRejects: malformations a crash cannot produce are errors, not an
// empty log.
func TestJournalRejects(t *testing.T) {
	b, _ := testJournal(t)
	cases := map[string][]byte{
		"foreign magic":   []byte("MLDX\x01"),
		"foreign prefix":  {0x3f},
		"unknown format":  append([]byte(journalMagic), JournalFormat+1),
		"oversized frame": append(AppendJournalHeader(nil), 0xff, 0xff, 0xff, 0xff),
		"trailing bytes":  append(AppendJournalHeader(nil), 2, 0, 0, 0, 1, 0),
		"short payload":   append(AppendJournalHeader(nil), 1, 0, 0, 0, 1),
		"corrupt body":    append(append([]byte(nil), b[:len(b)-1]...), 0xff),
	}
	for name, data := range cases {
		if _, err := readJournal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJournalRefusesOversizedEntry: an entry no reader would accept is
// refused at write time, leaving the buffer as it was.
func TestJournalRefusesOversizedEntry(t *testing.T) {
	req := FromRequest(abdl.NewInsert(abdm.NewRecord("f")))
	req.Record.Text = strings.Repeat("x", DefaultMaxFrame)
	head := AppendJournalHeader(make([]byte, 0, DefaultMaxFrame+64))
	b, err := AppendJournalEntry(head, &JournalEntry{Req: &req})
	if err == nil {
		t.Fatal("oversized entry accepted")
	}
	if !bytes.Equal(b, head) {
		t.Fatalf("refused entry left %d bytes behind", len(b)-len(head))
	}
}

// TestImageRoundTrip: a saved image reads back whole, and any cut of it is an
// error — an image is written in one piece, so a short one is damaged.
func TestImageRoundTrip(t *testing.T) {
	img := &Image{Name: "shop", Model: 2, DDL: "CREATE TABLE t (a INTEGER);", Records: []Record{
		FromRecord(abdm.NewRecord("t", abdm.Keyword{Attr: "a", Val: abdm.Int(1)})),
		FromRecord(abdm.NewRecord("t", abdm.Keyword{Attr: "a", Val: abdm.Null()})),
	}}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, img) {
		t.Fatalf("image round trip mismatch:\n in  %+v\n out %+v", img, back)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if _, err := ReadImage(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("image cut at byte %d of %d accepted", cut, buf.Len())
		}
	}
}
