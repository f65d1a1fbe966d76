package wire

import (
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

func TestForceIDRoundTrip(t *testing.T) {
	req := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "a", Val: abdm.Int(1)}))
	req.ForceID = 12345
	w := FromRequest(req)
	env, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Action: "exec", Req: &w}))
	if err != nil {
		t.Fatal(err)
	}
	back, err := env.Req.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if back.ForceID != 12345 {
		t.Errorf("ForceID round trip = %d", back.ForceID)
	}
	// Zero stays zero (allocator-assigned insert).
	plain, err := FromRequest(abdl.NewInsert(req.Record)).ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if plain.ForceID != 0 {
		t.Errorf("unpinned insert gained ForceID %d", plain.ForceID)
	}
}

func TestAffectedRoundTrip(t *testing.T) {
	res := &kdb.Result{Count: 3, Affected: []abdm.RecordID{4, 8, 15}}
	w := FromResult(res)
	env, err := DecodeEnvelope(EncodeEnvelope(&Envelope{Action: "exec", Res: &w}))
	if err != nil {
		t.Fatal(err)
	}
	back, err := env.Res.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Affected) != 3 {
		t.Fatalf("Affected round trip = %v", back.Affected)
	}
	for i, want := range []abdm.RecordID{4, 8, 15} {
		if back.Affected[i] != want {
			t.Errorf("Affected[%d] = %d, want %d", i, back.Affected[i], want)
		}
	}
}
