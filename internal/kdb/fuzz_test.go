package kdb

import (
	"bytes"
	"math"
	"testing"

	"mlds/internal/abdm"
)

// FuzzDecodeRecord feeds arbitrary bytes to the heap-cell decoder, with an
// interning table that knows a few names. It must never panic, and whenever
// a cell decodes, re-encoding the result and decoding that again must give
// the same id and the same record — compared by their canonical encoding,
// which also holds for NaN floats.
func FuzzDecodeRecord(f *testing.F) {
	full := abdm.NewRecord("course",
		abdm.Keyword{Attr: "title", Val: abdm.String("Systèmes répartis")},
		abdm.Keyword{Attr: "credits", Val: abdm.Int(-42)},
		abdm.Keyword{Attr: "rating", Val: abdm.Float(math.Inf(1))},
		abdm.Keyword{Attr: "dept", Val: abdm.Null()},
	)
	full.Text = "free text"
	cell := encodeRecord(1<<40, full)
	f.Add(cell)
	f.Add(cell[:len(cell)/2])
	f.Add(encodeRecord(1, abdm.NewRecord("person")))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a huge keyword count
	var names nameTable
	names.learn([]string{abdm.FileAttr, "course", "title", "credits"})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, rec, err := decodeRecord(data, &names)
		if err != nil {
			return
		}
		enc := encodeRecord(id, rec)
		id2, rec2, err := decodeRecord(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if id2 != id {
			t.Fatalf("id %d came back as %d", id, id2)
		}
		if !bytes.Equal(encodeRecord(id2, rec2), enc) {
			t.Fatalf("record %v came back as %v", rec, rec2)
		}
	})
}
