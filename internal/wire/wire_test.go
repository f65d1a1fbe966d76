package wire

import (
	"testing"
	"testing/quick"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []abdm.Value{
		abdm.Null(), abdm.Int(-42), abdm.Float(2.75), abdm.String("hello 'x'"),
	}
	for _, v := range vals {
		back, err := FromValue(v).ToValue()
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind() != v.Kind() || (!v.IsNull() && !back.Equal(v)) {
			t.Errorf("round trip %v -> %v", v, back)
		}
	}
	if _, err := (Value{Kind: 99}).ToValue(); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := abdm.NewRecord("f",
		abdm.Keyword{Attr: "a", Val: abdm.Int(1)},
		abdm.Keyword{Attr: "b", Val: abdm.Null()},
		abdm.Keyword{Attr: "c", Val: abdm.String("x")})
	r.Text = "note"
	back, err := FromRecord(r).ToRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("record round trip: %v vs %v", back, r)
	}
	if nilRec := FromRecord(nil); len(nilRec.Keywords) != 0 {
		t.Error("nil record should encode empty")
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
	}
	for _, req := range reqs {
		back, err := FromRequest(req).ToRequest()
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != req.String() {
			t.Errorf("request round trip:\n got %s\nwant %s", back, req)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	res := &kdb.Result{
		Op:    abdl.Retrieve,
		Count: 3,
		Cost:  kdb.Cost{BlocksRead: 7, DirProbes: 2, RecordsExam: 40, FilesTouched: 1},
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
		}},
	}
	back, err := FromResult(res).ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if back.Op != res.Op || back.Count != res.Count || back.Cost != res.Cost {
		t.Errorf("scalars differ: %+v vs %+v", back, res)
	}
	if len(back.Records) != 1 || back.Records[0].ID != 5 || !back.Records[0].Rec.Equal(res.Records[0].Rec) {
		t.Error("records differ")
	}
	if len(back.Groups) != 1 || !back.Groups[0].By.Equal(res.Groups[0].By) ||
		back.Groups[0].Aggs[0].Val.AsInt() != 1 {
		t.Error("groups differ")
	}
}

func TestEnvelopeRequestRoundTrip(t *testing.T) {
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "a", Op: abdm.OpEq, Val: abdm.Int(1)}), abdl.AllAttrs)
	wreq := FromRequest(req)
	back, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Seq: 9, Action: "exec", Req: &wreq}))
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 9 || back.Action != "exec" || back.Req == nil {
		t.Fatalf("envelope = %+v", back)
	}
	breq, err := back.Req.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if breq.String() != req.String() {
		t.Error("request mangled through the codec")
	}
}

// Property: any int/string keyword list survives the wire.
func TestRecordWireProperty(t *testing.T) {
	f := func(a int64, s string) bool {
		r := abdm.NewRecord("f",
			abdm.Keyword{Attr: "n", Val: abdm.Int(a)},
			abdm.Keyword{Attr: "s", Val: abdm.String(s)})
		back, err := FromRecord(r).ToRecord()
		return err == nil && back.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
