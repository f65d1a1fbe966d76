package mbds

import (
	"fmt"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

func employee(i int) *abdm.Record {
	return abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("emp%03d", i))},
		abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE"}[i%2])},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(1000 + i))})
}

func TestExecBatchBulkInsertAndRetrieve(t *testing.T) {
	s := newSystem(t, 3)
	reqs := make([]*abdl.Request, 0, 31)
	for i := 0; i < 30; i++ {
		reqs = append(reqs, abdl.NewInsert(employee(i)))
	}
	q := abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")})
	reqs = append(reqs, abdl.NewRetrieve(q, abdl.AllAttrs))

	results, simt, err := s.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(results), len(reqs))
	}
	for i := 0; i < 30; i++ {
		if results[i].Count != 1 {
			t.Fatalf("insert %d: Count = %d, want 1", i, results[i].Count)
		}
	}
	if got := len(results[30].Records); got != 15 {
		t.Fatalf("batched retrieve saw %d CS employees, want 15", got)
	}
	if s.Len() != 30 {
		t.Fatalf("system holds %d records, want 30", s.Len())
	}
	if simt <= 0 {
		t.Fatalf("simulated batch time = %v, want > 0", simt)
	}

	// The batched round pays bus latency once and overlaps the backends'
	// disk work, so it must undercut running the same requests one at a time.
	seq := newSystem(t, 3)
	var seqTotal time.Duration
	for i := 0; i < 30; i++ {
		_, st, err := seq.ExecTimed(abdl.NewInsert(employee(i)))
		if err != nil {
			t.Fatal(err)
		}
		seqTotal += st
	}
	_, st, err := seq.ExecTimed(abdl.NewRetrieve(q, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	seqTotal += st
	if simt >= seqTotal {
		t.Fatalf("batched sim time %v did not beat sequential %v", simt, seqTotal)
	}
}

func TestExecBatchMatchesSequentialResults(t *testing.T) {
	seq := newSystem(t, 3)
	bat := newSystem(t, 3)
	var reqs []*abdl.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, abdl.NewInsert(employee(i)))
	}
	for _, req := range reqs {
		if _, err := seq.Exec(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := bat.ExecBatch(reqs); err != nil {
		t.Fatal(err)
	}

	q := abdm.And(abdm.Predicate{Attr: "salary", Op: abdm.OpGe, Val: abdm.Int(1010)})
	probe := abdl.NewRetrieve(q, "name", "salary")
	a, err := seq.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bat.Exec(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("sequential load answers %d records, batched load %d", len(a.Records), len(b.Records))
	}
	// Batched inserts execute concurrently across backends, so database keys
	// (and with them result order) may differ — compare the answer as a set.
	got := make(map[string]bool)
	want := make(map[string]bool)
	for i := range a.Records {
		v, _ := a.Records[i].Rec.Get("name")
		want[v.AsString()] = true
		v, _ = b.Records[i].Rec.Get("name")
		got[v.AsString()] = true
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("batched load is missing %q", n)
		}
	}
}

func TestExecBatchMixedMutations(t *testing.T) {
	s := newSystem(t, 2)
	loadEmployees(t, s, 10)
	q := func(name string) abdm.Query {
		return abdm.And(abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String(name)})
	}
	reqs := []*abdl.Request{
		abdl.NewUpdate(q("emp0001"), abdl.Modifier{Attr: "salary", Val: abdm.Int(9999)}),
		abdl.NewDelete(q("emp0002")),
		abdl.NewRetrieve(q("emp0001"), abdl.AllAttrs),
	}
	results, _, err := s.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Count != 1 {
		t.Fatalf("batched update affected %d records, want 1", results[0].Count)
	}
	if results[1].Count != 1 {
		t.Fatalf("batched delete affected %d records, want 1", results[1].Count)
	}
	if len(results[2].Records) != 1 {
		t.Fatalf("batched retrieve saw %d records, want 1", len(results[2].Records))
	}
	// Requests execute in order within each backend's sub-batch, so the
	// retrieve observes the earlier update.
	if v, _ := results[2].Records[0].Rec.Get("salary"); v.AsInt() != 9999 {
		t.Fatalf("batched retrieve saw salary %d, want the batched update's 9999", v.AsInt())
	}
	if s.Len() != 9 {
		t.Fatalf("system holds %d records after batched delete, want 9", s.Len())
	}
}

func TestExecBatchReplicatedInserts(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Replicas = 1
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var reqs []*abdl.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, abdl.NewInsert(employee(i)))
	}
	results, _, err := s.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Count != 1 {
			t.Fatalf("replicated insert %d: Count = %d, want 1 logical record", i, res.Count)
		}
	}
	// Each record lands on 2 backends.
	if s.Len() != 24 {
		t.Fatalf("copies across backends = %d, want 24", s.Len())
	}
	// Reads dedup the copies.
	res, err := s.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("deduped retrieve saw %d records, want 12", len(res.Records))
	}
}

func TestExecBatchValidatesUpfront(t *testing.T) {
	s := newSystem(t, 2)
	loadEmployees(t, s, 4)
	reqs := []*abdl.Request{
		abdl.NewDelete(abdm.And(abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String("emp000")})),
		{Kind: abdl.Delete}, // invalid: no query
	}
	if _, _, err := s.ExecBatch(reqs); err == nil {
		t.Fatal("batch with an invalid request succeeded")
	}
	// Upfront validation rejects the whole batch before anything executes.
	if s.Len() != 4 {
		t.Fatalf("invalid batch still mutated the store: Len = %d, want 4", s.Len())
	}
}

func TestExecBatchClosed(t *testing.T) {
	s := newSystem(t, 1)
	s.Close()
	if _, _, err := s.ExecBatch([]*abdl.Request{abdl.NewInsert(employee(0))}); err != ErrClosed {
		t.Fatalf("ExecBatch on closed system: %v, want ErrClosed", err)
	}
}

func TestExecBatchEmpty(t *testing.T) {
	s := newSystem(t, 2)
	results, simt, err := s.ExecBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || simt != 0 {
		t.Fatalf("empty batch: %d results, %v sim time", len(results), simt)
	}
}

func TestExecBatchSerialAblation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Serial = true
	cfg.MsgLatency = time.Millisecond
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var reqs []*abdl.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, abdl.NewInsert(employee(i)))
	}
	results, _, err := s.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 || s.Len() != 8 {
		t.Fatalf("serial batch: %d results, %d records", len(results), s.Len())
	}
}

// TestExecBatchKeepsOrderAcrossRetrieveCommon checks that a RETRIEVE-COMMON
// runs at its position in a batch: it sees the insert before it, just as the
// retrieve after it does.
func TestExecBatchKeepsOrderAcrossRetrieveCommon(t *testing.T) {
	s := newSystem(t, 2)
	cs := abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")})
	reqs := []*abdl.Request{
		abdl.NewInsert(employee(0)), // emp000, dept CS
		abdl.NewRetrieveCommon(cs, "dept",
			abdm.And(abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String("emp000")}), "name"),
		abdl.NewRetrieve(cs, "name"),
	}
	results, _, err := s.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(results[1].Records); got != 1 {
		t.Errorf("RETRIEVE-COMMON after the insert answered %d rows, want 1", got)
	}
	if got := len(results[2].Records); got != 1 {
		t.Errorf("RETRIEVE after the insert answered %d rows, want 1", got)
	}
}
