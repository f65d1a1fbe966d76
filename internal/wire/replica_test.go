package wire

import (
	"reflect"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

func TestForceIDRoundTrip(t *testing.T) {
	req := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "a", Val: abdm.Int(1)}))
	req.ForceID = 12345
	if back := roundTrip(t, &Envelope{Action: "exec", Req: req}); back.Req.ForceID != 12345 {
		t.Errorf("ForceID round trip = %d", back.Req.ForceID)
	}
	// Zero stays zero (allocator-assigned insert).
	if back := roundTrip(t, &Envelope{Action: "exec", Req: abdl.NewInsert(req.Record)}); back.Req.ForceID != 0 {
		t.Errorf("unpinned insert gained ForceID %d", back.Req.ForceID)
	}
}

func TestAffectedRoundTrip(t *testing.T) {
	res := &kdb.Result{Count: 3, Affected: []abdm.RecordID{4, 8, 15}}
	back := roundTrip(t, &Envelope{Action: "exec", Res: res})
	if !reflect.DeepEqual(back.Res.Affected, res.Affected) {
		t.Fatalf("Affected round trip = %v", back.Res.Affected)
	}
}
