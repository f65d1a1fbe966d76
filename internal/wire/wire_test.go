package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// roundTrip encodes env and decodes it back.
func roundTrip(t *testing.T, env *Envelope) *Envelope {
	t.Helper()
	back, err := DecodeEnvelope(EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestValueRoundTrip(t *testing.T) {
	vals := []abdm.Value{
		abdm.Null(), abdm.Int(-42), abdm.Float(2.75), abdm.String("hello 'x'"),
	}
	for _, v := range vals {
		rec := &abdm.Record{Keywords: []abdm.Keyword{{Attr: "v", Val: v}}}
		back := roundTrip(t, &Envelope{Req: abdl.NewInsert(rec)}).Req.Record.Keywords[0].Val
		if back != v {
			t.Errorf("round trip %v -> %v", v, back)
		}
	}
}

// TestUnknownValueKindRejected: a value kind the model does not have fails
// inside every decoder that reads values.
func TestUnknownValueKindRejected(t *testing.T) {
	rec := &abdm.Record{Keywords: []abdm.Keyword{{Attr: "zz", Val: abdm.String("q")}}}
	// Retag the keyword's value: attr "zz", then kind 's'.
	retag := func(b []byte) []byte {
		i := bytes.Index(b, []byte("\x02zzs"))
		if i < 0 {
			t.Fatalf("no tagged value in %x", b)
		}
		b = bytes.Clone(b)
		b[i+3] = 99
		return b
	}
	env := retag(EncodeEnvelope(&Envelope{Action: "exec", Req: abdl.NewInsert(rec)}))
	if _, err := DecodeEnvelope(env); err == nil {
		t.Error("DecodeEnvelope accepted an unknown value kind")
	}
	msg := retag(EncodeMsg(&Msg{Kind: MsgEvent, Events: []Event{{Op: 1, Rec: rec}}}))
	if _, err := DecodeMsg(msg); err == nil {
		t.Error("DecodeMsg accepted an unknown value kind")
	}
	j, err := AppendJournalEntry(AppendJournalHeader(nil), &JournalEntry{Req: abdl.NewInsert(rec)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(retag(j)); err == nil {
		t.Error("ReadJournal accepted an unknown value kind")
	}
	var img bytes.Buffer
	if err := WriteImage(&img, &Image{Name: "n", Records: []*abdm.Record{rec}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadImage(bytes.NewReader(retag(img.Bytes()))); err == nil {
		t.Error("ReadImage accepted an unknown value kind")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := abdm.NewRecord("f",
		abdm.Keyword{Attr: "a", Val: abdm.Int(1)},
		abdm.Keyword{Attr: "b", Val: abdm.Null()},
		abdm.Keyword{Attr: "c", Val: abdm.String("x")})
	r.Text = "note"
	back := roundTrip(t, &Envelope{Req: abdl.NewInsert(r)}).Req.Record
	if !back.Equal(r) || back.Text != "note" {
		t.Errorf("record round trip: %v vs %v", back, r)
	}
	// An absent record stays absent; an empty one comes back empty but
	// present.
	if back := roundTrip(t, &Envelope{Req: abdl.NewInsert(nil)}); back.Req.Record != nil {
		t.Errorf("absent record decoded as %v", back.Req.Record)
	}
	empty := roundTrip(t, &Envelope{Req: abdl.NewInsert(&abdm.Record{})}).Req.Record
	if empty == nil || len(empty.Keywords) != 0 || empty.Text != "" {
		t.Errorf("empty record decoded as %v", empty)
	}
	// Both forms are the same bytes after the presence bool.
	absent := EncodeEnvelope(&Envelope{Req: abdl.NewInsert(nil)})
	present := EncodeEnvelope(&Envelope{Req: abdl.NewInsert(&abdm.Record{})})
	if len(absent) != len(present) {
		t.Errorf("absent record is %d bytes, empty one %d", len(absent), len(present))
	}
}

func TestRequestRoundTripAllKinds(t *testing.T) {
	reqs := []*abdl.Request{
		abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "a", Val: abdm.Int(1)})),
		abdl.NewDelete(abdm.And(abdm.Predicate{Attr: "a", Op: abdm.OpLt, Val: abdm.Int(5)})),
		abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "a", Op: abdm.OpEq, Val: abdm.Int(1)}),
			abdl.Modifier{Attr: "a", Val: abdm.Null()}),
		abdl.NewRetrieve(abdm.Query{
			{{Attr: "a", Op: abdm.OpGe, Val: abdm.Int(1)}},
			{{Attr: "b", Op: abdm.OpEq, Val: abdm.String("x")}},
		}, "a", "b").WithBy("a"),
		abdl.NewRetrieveCommon(
			abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")}),
			"a",
			abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("g")}),
			abdl.AllAttrs,
		),
		{Kind: abdl.Delete, Query: abdm.And(abdm.Predicate{Attr: "a", Op: abdm.OpNe, Val: abdm.Float(1.5)}),
			ForceID: 9, NoVersion: true},
		{Kind: abdl.MvccCommit, TxnID: 4, MvccEpoch: 11},
		{Kind: abdl.MvccAbort, TxnID: 5},
		{Kind: abdl.MvccGC, MvccEpoch: 3},
	}
	for _, req := range reqs {
		back := roundTrip(t, &Envelope{Req: req}).Req
		if back.String() != req.String() || back.Kind != req.Kind || back.ForceID != req.ForceID ||
			back.TxnID != req.TxnID || back.SnapEpoch != req.SnapEpoch ||
			back.NoVersion != req.NoVersion || back.MvccEpoch != req.MvccEpoch {
			t.Errorf("request round trip:\n got %s %+v\nwant %s %+v", back, back, req, req)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &kdb.Result{
		Op:    abdl.Retrieve,
		Count: 3,
		Cost:  kdb.Cost{BlocksRead: 7, BlocksWrit: 1, DirProbes: 2, RecordsExam: 40, FilesTouched: 1},
		Records: []kdb.StoredRecord{
			{ID: 5, Rec: abdm.NewRecord("f", abdm.Keyword{Attr: "a", Val: abdm.Int(1)})},
		},
		Groups: []kdb.Group{{
			By: abdm.String("CS"),
			Recs: []kdb.StoredRecord{
				{ID: 5, Rec: abdm.NewRecord("f", abdm.Keyword{Attr: "a", Val: abdm.Int(1)})},
			},
			Aggs: []kdb.AggValue{{
				Item: abdl.TargetItem{Agg: abdl.AggSum, Attr: "a"},
				Val:  abdm.Int(1),
			}},
		}, {By: abdm.Null()}},
		Versions: 6,
	}
	back := roundTrip(t, &Envelope{Res: res, Results: []*kdb.Result{res}})
	for _, got := range []*kdb.Result{back.Res, back.Results[0]} {
		if !reflect.DeepEqual(got, res) {
			t.Errorf("result round trip:\n got %+v\nwant %+v", got, res)
		}
	}
}

func TestEnvelopeRequestRoundTrip(t *testing.T) {
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "a", Op: abdm.OpEq, Val: abdm.Int(1)}), abdl.AllAttrs)
	back := roundTrip(t, &Envelope{Seq: 9, Action: "exec", Req: req})
	if back.Seq != 9 || back.Action != "exec" || back.Req == nil {
		t.Fatalf("envelope = %+v", back)
	}
	if back.Req.String() != req.String() {
		t.Error("request mangled through the codec")
	}
}

// Property: any int/string keyword list survives the wire.
func TestRecordWireProperty(t *testing.T) {
	f := func(a int64, s string) bool {
		r := abdm.NewRecord("f",
			abdm.Keyword{Attr: "n", Val: abdm.Int(a)},
			abdm.Keyword{Attr: "s", Val: abdm.String(s)})
		back, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Req: abdl.NewInsert(r)}))
		return err == nil && back.Req.Record.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
