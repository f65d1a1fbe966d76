package wire

import (
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// BenchmarkEnvelopeRoundTrip is one bus round of a point RETRIEVE as a
// remote backend serves it: the controller encodes the request, the backend
// decodes it and encodes a one-row reply, and the controller decodes that.
func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("emp")},
		abdm.Predicate{Attr: "id", Op: abdm.OpEq, Val: abdm.Int(42)}), abdl.AllAttrs)
	res := &kdb.Result{Op: abdl.Retrieve, Cost: kdb.Cost{FilesTouched: 1, BlocksRead: 1, DirProbes: 2, RecordsExam: 1},
		Records: []kdb.StoredRecord{{ID: 42, Rec: abdm.NewRecord("emp",
			abdm.Keyword{Attr: "id", Val: abdm.Int(42)},
			abdm.Keyword{Attr: "name", Val: abdm.String("Ann")},
			abdm.Keyword{Attr: "pay", Val: abdm.Float(900.5)})}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Seq: uint64(i), Action: "exec", Req: req}))
		if err != nil {
			b.Fatal(err)
		}
		reply, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Seq: in.Seq, Res: res}))
		if err != nil || reply.Res == nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend logs one committed one-predicate UPDATE into a
// reused journal buffer, as the commit sink does for each redo record.
func BenchmarkJournalAppend(b *testing.B) {
	req := abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "id", Op: abdm.OpEq, Val: abdm.Int(7)}),
		abdl.Modifier{Attr: "balance", Val: abdm.Int(70)})
	affected := []uint64{7}
	buf := AppendJournalHeader(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendJournalEntry(buf[:0], &JournalEntry{Txn: uint64(i), Key: 9, Req: req, Affected: affected}); err != nil {
			b.Fatal(err)
		}
	}
}
