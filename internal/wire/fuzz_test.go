package wire

import (
	"bytes"
	"os"
	"testing"

	"mlds/internal/abdm"
)

// FuzzDecodeEnvelope hunts for inputs that crash, hang or over-allocate the
// bus-envelope decoder, and checks the decode→encode→decode fixpoint: any
// payload the decoder accepts must re-encode to a payload it accepts again
// with identical bytes (the codec is deterministic and canonical).
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add(EncodeEnvelope(&Envelope{Action: "len"}))
	f.Add(EncodeEnvelope(testEnvelope()))
	f.Add([]byte{Version})
	f.Add([]byte{Version, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		re := EncodeEnvelope(env)
		env2, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if !bytes.Equal(re, EncodeEnvelope(env2)) {
			t.Fatalf("encode not a fixpoint for %x", data)
		}
	})
}

// FuzzDecodeMsg does the same for the client-hop message decoder.
func FuzzDecodeMsg(f *testing.F) {
	f.Add(EncodeMsg(&Msg{Kind: MsgHello}))
	f.Add(EncodeMsg(&Msg{Kind: MsgExec, SID: 1, Seq: 2, Stmt: "SELECT 1"}))
	f.Add(EncodeMsg(&Msg{Kind: MsgReply, Code: CodeDeadlock, Err: "x",
		DBs: []DBInfo{{Name: "u", Model: "functional", Backends: 2, Records: 9}}}))
	f.Add(EncodeMsg(&Msg{Kind: MsgReply, SID: 1, Seq: 3, Watch: 2, Rendered: "watch established"}))
	f.Add(EncodeMsg(&Msg{Kind: MsgEvent, SID: 1, Watch: 2, Events: []Event{
		{Op: 2, ID: 7, Pos: 3, Epoch: 1, Txn: 5, File: "emp",
			Rec: &abdm.Record{Keywords: []abdm.Keyword{{Attr: "pay", Val: abdm.Int(900)}}}},
		{Op: 4, ID: 8, Pos: 4, File: "emp"},
	}}))
	f.Add(EncodeMsg(&Msg{Kind: MsgWatchClose, SID: 1, Watch: 2, Code: CodeInternal, Err: "gone"}))
	f.Add([]byte{Version, MsgReply})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMsg(data)
		if err != nil {
			return
		}
		re := EncodeMsg(m)
		m2, err := DecodeMsg(re)
		if err != nil {
			t.Fatalf("re-decode of accepted msg failed: %v", err)
		}
		if !bytes.Equal(re, EncodeMsg(m2)) {
			t.Fatalf("encode not a fixpoint for %x", data)
		}
	})
}

// FuzzReadImage does the same for the database-image reader, seeded with
// real images and cuts of them.
func FuzzReadImage(f *testing.F) {
	golden, err := os.ReadFile("testdata/image-v1.mldi")
	if err != nil {
		f.Fatal(err)
	}
	var small bytes.Buffer
	if err := WriteImage(&small, &Image{Name: "n", Records: []*abdm.Record{
		abdm.NewRecord("t", abdm.Keyword{Attr: "a", Val: abdm.Int(1)})}}); err != nil {
		f.Fatal(err)
	}
	for _, img := range [][]byte{golden, small.Bytes()} {
		for _, cut := range []int{len(img), len(img) - 1, len(img) / 2, len(imageMagic) + 1} {
			f.Add(img[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteImage(&re, img); err != nil {
			t.Fatal(err)
		}
		img2, err := ReadImage(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-read of an accepted image failed: %v", err)
		}
		var re2 bytes.Buffer
		if err := WriteImage(&re2, img2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), re2.Bytes()) {
			t.Fatalf("encode not a fixpoint for %x", data)
		}
	})
}
