package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// testEnvelope builds an envelope exercising every field group.
func testEnvelope() *Envelope {
	req := abdl.NewRetrieve(abdm.Query{
		{{Attr: "FILE", Op: abdm.OpEq, Val: abdm.String("student")},
			{Attr: "gpa", Op: abdm.OpGe, Val: abdm.Float(3.5)}},
		{{Attr: "major", Op: abdm.OpEq, Val: abdm.String("CS")}},
	}, "pname", "gpa").WithBy("major")
	req.TxnID = 7
	req.SnapEpoch = 9
	ins := abdl.NewInsert(abdm.NewRecord("course",
		abdm.Keyword{Attr: "title", Val: abdm.String("DB")},
		abdm.Keyword{Attr: "credits", Val: abdm.Int(4)},
		abdm.Keyword{Attr: "score", Val: abdm.Null()}))
	ins.ForceID = 42
	res := &kdb.Result{
		Op:       abdl.Retrieve,
		Count:    2,
		Affected: []abdm.RecordID{4, 8},
		Cost:     kdb.Cost{FilesTouched: 1, BlocksRead: 3, DirProbes: 2, RecordsExam: 5},
		Versions: 1,
		Records: []kdb.StoredRecord{
			{ID: 11, Rec: abdm.NewRecord("student", abdm.Keyword{Attr: "pname", Val: abdm.String("Ann")})},
		},
		Groups: []kdb.Group{{
			By: abdm.String("CS"),
			Aggs: []kdb.AggValue{{
				Item: abdl.TargetItem{Agg: abdl.AggAvg, Attr: "gpa"},
				Val:  abdm.Float(3.25),
			}},
		}},
	}
	return &Envelope{
		Seq:     3,
		Action:  "execbatch",
		Err:     "boom",
		ErrCode: CodeDraining,
		N:       -4,
		Req:     req,
		Reqs:    []*abdl.Request{ins},
		Res:     res,
		Results: []*kdb.Result{res},
		Since:   5,
		After:   6,
		Limit:   128,
		Migs: []kdb.MigRecord{{
			File: "student", ID: 12,
			Live: abdm.NewRecord("student", abdm.Keyword{Attr: "gpa", Val: abdm.Float(3)}),
			Chain: []kdb.MigVersion{
				{Epoch: 2, Txn: 3, Rec: abdm.NewRecord("student")},
				{Epoch: 4, Txn: 5}, // tombstone
			},
		}, {File: "student", ID: 13}}, // deleted: no live record
		Next:  13,
		Epoch: 14,
		IDs:   []uint64{1, 2, 3},
	}
}

// sameEnvelope compares envelopes through the deterministic encoder, so nil
// and empty collections (identical on the wire) compare equal.
func sameEnvelope(a, b *Envelope) bool {
	return bytes.Equal(EncodeEnvelope(a), EncodeEnvelope(b))
}

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	env := testEnvelope()
	got, err := DecodeEnvelope(EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(env, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", env, got)
	}
	if got.ErrCode != CodeDraining || got.N != -4 || got.Limit != 128 ||
		got.Req == nil || got.Res == nil || len(got.Reqs) != 1 ||
		len(got.Results) != 1 || len(got.Migs) != 2 || len(got.IDs) != 3 {
		t.Fatalf("decoded fields wrong: %+v", got)
	}
	// The decoded request is an identical model request.
	if want, back := env.Req, got.Req; want.String() != back.String() || back.TxnID != 7 || back.SnapEpoch != 9 {
		t.Fatalf("model request drifted: %s vs %s", want, back)
	}
	// Migration records keep their live state, their chain and its
	// tombstone; a deleted record decodes with no live record.
	if !reflect.DeepEqual(got.Migs, env.Migs) {
		t.Fatalf("migration records drifted:\n in  %+v\n out %+v", env.Migs, got.Migs)
	}
	if got.Migs[0].Chain[1].Rec != nil || got.Migs[1].Live != nil || got.Migs[1].Chain != nil {
		t.Fatalf("tombstone or deleted record decoded with a record: %+v", got.Migs)
	}
	// Empty envelope too.
	empty := &Envelope{Action: "len"}
	got, err = DecodeEnvelope(EncodeEnvelope(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(empty, got) {
		t.Fatalf("empty round trip mismatch: %+v", got)
	}
}

// TestEnvelopeGoldenFrame pins the encoding byte for byte: framing v2 is a
// protocol, so any layout change must bump the version, not silently reorder
// fields. Regenerate with: t.Log(hex.EncodeToString(EncodeEnvelope(env))).
func TestEnvelopeGoldenFrame(t *testing.T) {
	env := &Envelope{
		Seq:     9,
		Action:  "exec",
		ErrCode: CodeOK,
		Req: abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "FILE", Op: abdm.OpEq, Val: abdm.String("dept")},
		), "dname"),
	}
	const golden = "02090465786563000000010600000001010446494c4500" +
		"73000000000000000000046465707400010005646e616d6500000000" +
		"0000000000000000000000000000"
	got := hex.EncodeToString(EncodeEnvelope(env))
	if got != golden {
		t.Fatalf("golden frame drifted:\n got  %s\n want %s", got, golden)
	}
	back, err := DecodeEnvelope(EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(env, back) {
		t.Fatalf("golden round trip mismatch: %+v", back)
	}
}

// TestMsgGoldenFrame pins the client-hop message encoding the same way.
func TestMsgGoldenFrame(t *testing.T) {
	m := &Msg{
		Kind: MsgExec, SID: 5, Seq: 77, Code: CodeOK, Flags: InTxnFlag,
		DB: "university", Language: "sql", Stmt: "SELECT 1",
	}
	const want = "0203054d00020a756e69766572736974790373716c" +
		"0853454c45435420310000000000000000"
	got := hex.EncodeToString(EncodeMsg(m))
	if got != want {
		t.Fatalf("msg golden frame drifted:\n got  %s\n want %s", got, want)
	}
	back, err := DecodeMsg(EncodeMsg(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("msg round trip mismatch: %+v", back)
	}
}

// TestEventGoldenFrame pins the server-push message encoding: MsgEvent
// batches and the appended watch fields are protocol surface like the rest
// of the layout. Regenerate with: t.Log(hex.EncodeToString(EncodeMsg(m))).
func TestEventGoldenFrame(t *testing.T) {
	m := &Msg{
		Kind: MsgEvent, SID: 5, Watch: 3,
		Events: []Event{
			{Op: 2, ID: 11, Pos: 7, Epoch: 4, Txn: 9, File: "emp",
				Rec: abdm.NewRecord("emp", abdm.Keyword{Attr: "pay", Val: abdm.Int(900)})},
			{Op: 4, ID: 12, Pos: 8, Epoch: 4, Txn: 9, File: "emp"},
		},
	}
	const golden = "0208050000000000000000000000000302020b07040903656d70" +
		"01020446494c457300000000000000000003656d7003706179" +
		"69880e00000000000000000000040c08040903656d70000000"
	got := hex.EncodeToString(EncodeMsg(m))
	if got != golden {
		t.Fatalf("event golden frame drifted:\n got  %s\n want %s", got, golden)
	}
	back, err := DecodeMsg(EncodeMsg(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("event round trip mismatch: %+v", back)
	}
}

func TestMsgCodecRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: MsgHello},
		{Kind: MsgOpen, SID: 1, Seq: 2, DB: "u", Language: "daplex", Flags: SnapFlag},
		{Kind: MsgReply, SID: 1, Seq: 2, Code: CodeDeadlock, Err: "x", Txn: 19,
			Flags: InTxnFlag | DrainingFlag, Rendered: "r", WallUS: 12, SimUS: 34},
		{Kind: MsgReply, Seq: 4, DBs: []DBInfo{
			{Name: "u", Model: "functional", Backends: 4, Records: 100},
			{Name: "shop", Model: "relational"},
		}},
		{Kind: MsgReply, SID: 2, Seq: 6, Rendered: "watch established", Watch: 3},
		{Kind: MsgEvent, SID: 2, Watch: 3, Events: []Event{
			{Op: 1, ID: 4, Pos: 2, Epoch: 1, Txn: 8, File: "emp"},
		}},
		{Kind: MsgWatchClose, SID: 2, Watch: 3, Code: CodeInternal, Err: "view gone"},
	}
	for _, m := range msgs {
		back, err := DecodeMsg(EncodeMsg(m))
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", m, back)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte("x"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame round trip: %q != %q", got, p)
		}
	}
	// Oversized frames are refused before allocation.
	var big bytes.Buffer
	if err := WriteFrame(&big, bytes.Repeat([]byte("y"), 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&big, 10); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated streams surface as errors, not hangs.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 1}), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,                                    // empty
		{9},                                    // wrong version
		{Version},                              // truncated after version
		{Version, 0xff, 0xff},                  // truncated uvarint run
		append(EncodeEnvelope(&Envelope{}), 0), // trailing byte
	}
	for _, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Fatalf("DecodeEnvelope(%x) accepted", b)
		}
	}
	if _, err := DecodeMsg([]byte{Version}); err == nil {
		t.Fatal("truncated msg accepted")
	}
	// A huge collection count must be refused, not allocated.
	b := []byte{Version}
	b = appendUvarint(b, 0)     // seq
	b = appendString(b, "exec") // action
	b = appendUvarint(b, 0)     // errcode
	b = appendString(b, "")     // err
	b = appendVarint(b, 0)      // n
	b = appendBool(b, false)    // req
	b = appendUvarint(b, 1<<40) // reqs: absurd count
	if _, err := DecodeEnvelope(b); err == nil {
		t.Fatal("absurd collection count accepted")
	}
}

func TestCodeTable(t *testing.T) {
	if CodeDeadlock.String() != "deadlock" || Code(999).String() != "code(?)" {
		t.Fatal("code names wrong")
	}
	if !CodeDeadlock.Retryable() || !CodeDraining.Retryable() || CodeParse.Retryable() {
		t.Fatal("retryable classification wrong")
	}
	if !CodeDraining.NotExecuted() || CodeDeadlock.NotExecuted() {
		t.Fatal("not-executed classification wrong")
	}
	// The numbers are frozen protocol; assert a few anchors.
	anchors := map[Code]uint16{
		CodeOK: 0, CodeNoDatabase: 3, CodeDeadlock: 6, CodeDraining: 11, CodeProto: 16,
		CodeNoWatch: 17, CodeWatchLimit: 18, CodeView: 19, CodeResultTooLarge: 20,
	}
	if !CodeWatchLimit.Retryable() || !CodeWatchLimit.NotExecuted() {
		t.Fatal("watch-limit classification wrong")
	}
	if CodeView.Retryable() || CodeNoWatch.Retryable() || CodeResultTooLarge.Retryable() {
		t.Fatal("view/no-watch/result-too-large must not be retryable")
	}
	for c, n := range anchors {
		if uint16(c) != n {
			t.Fatalf("code %s renumbered to %d (want %d)", c, uint16(c), n)
		}
	}
}
