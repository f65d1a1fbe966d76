// Package wire defines the message types exchanged over MLDS's two network
// hops — the controller→backend communication bus (Envelope) and the
// client→front-end serving hop (Msg) — their compact length-prefixed binary
// encoding ("framing v2", frame.go/codec.go/client.go), the stable error-code
// table (codes.go), and the conversions between wire and model types (whose
// fields are deliberately unexported). It also owns the two on-disk layouts
// built from the same codec: the kernel controller's redo journal
// (journal.go) and saved database images (image.go).
package wire

import (
	"fmt"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// Value is the wire form of abdm.Value.
type Value struct {
	Kind byte
	I    int64
	F    float64
	S    string
}

// FromValue converts a model value.
func FromValue(v abdm.Value) Value {
	w := Value{Kind: byte(v.Kind())}
	switch v.Kind() {
	case abdm.KindInt:
		w.I = v.AsInt()
	case abdm.KindFloat:
		w.F = v.AsFloat()
	case abdm.KindString:
		w.S = v.AsString()
	}
	return w
}

// ToValue converts back to a model value.
func (w Value) ToValue() (abdm.Value, error) {
	switch abdm.Kind(w.Kind) {
	case abdm.KindNull:
		return abdm.Null(), nil
	case abdm.KindInt:
		return abdm.Int(w.I), nil
	case abdm.KindFloat:
		return abdm.Float(w.F), nil
	case abdm.KindString:
		return abdm.String(w.S), nil
	default:
		return abdm.Value{}, fmt.Errorf("wire: unknown value kind %d", w.Kind)
	}
}

// Keyword is the wire form of abdm.Keyword.
type Keyword struct {
	Attr string
	Val  Value
}

// Record is the wire form of abdm.Record.
type Record struct {
	Keywords []Keyword
	Text     string
}

// FromRecord converts a model record.
func FromRecord(r *abdm.Record) Record {
	if r == nil {
		return Record{}
	}
	w := Record{Text: r.Text, Keywords: make([]Keyword, len(r.Keywords))}
	for i, kw := range r.Keywords {
		w.Keywords[i] = Keyword{Attr: kw.Attr, Val: FromValue(kw.Val)}
	}
	return w
}

// ToRecord converts back to a model record.
func (w Record) ToRecord() (*abdm.Record, error) {
	r := &abdm.Record{Text: w.Text}
	for _, kw := range w.Keywords {
		v, err := kw.Val.ToValue()
		if err != nil {
			return nil, err
		}
		r.Keywords = append(r.Keywords, abdm.Keyword{Attr: kw.Attr, Val: v})
	}
	return r, nil
}

// Predicate is the wire form of abdm.Predicate.
type Predicate struct {
	Attr string
	Op   byte
	Val  Value
}

// Query is the wire form of abdm.Query (DNF).
type Query [][]Predicate

// FromQuery converts a model query.
func FromQuery(q abdm.Query) Query {
	out := make(Query, len(q))
	for i, conj := range q {
		out[i] = make([]Predicate, len(conj))
		for j, p := range conj {
			out[i][j] = Predicate{Attr: p.Attr, Op: byte(p.Op), Val: FromValue(p.Val)}
		}
	}
	return out
}

// ToQuery converts back to a model query.
func (w Query) ToQuery() (abdm.Query, error) {
	if len(w) == 0 {
		return nil, nil
	}
	out := make(abdm.Query, len(w))
	for i, conj := range w {
		c := make(abdm.Conjunction, len(conj))
		for j, p := range conj {
			v, err := p.Val.ToValue()
			if err != nil {
				return nil, err
			}
			c[j] = abdm.Predicate{Attr: p.Attr, Op: abdm.Op(p.Op), Val: v}
		}
		out[i] = c
	}
	return out, nil
}

// Request is the wire form of abdl.Request.
type Request struct {
	Kind    int
	Record  Record
	HasRec  bool
	Query   Query
	Mods    []Keyword
	Target  []TargetItem
	By      string
	Common  string
	Query2  Query
	ForceID uint64 // INSERT: replica-pinned database key (0 = allocate)

	// MVCC plumbing; see the matching abdl.Request fields.
	TxnID     uint64 // mutations: pending-version owner; MVCC-COMMIT/ABORT: target txn
	SnapEpoch uint64 // RETRIEVE(-COMMON): snapshot read at this epoch
	NoVersion bool   // mutations: skip version-chain bookkeeping (undo path)
	MvccEpoch uint64 // MVCC-COMMIT: commit epoch; MVCC-GC: watermark
}

// TargetItem is the wire form of abdl.TargetItem.
type TargetItem struct {
	Agg  int
	Attr string
}

// FromRequest converts a model request.
func FromRequest(r *abdl.Request) Request {
	w := Request{
		Kind:      int(r.Kind),
		Query:     FromQuery(r.Query),
		By:        r.By,
		Common:    r.Common,
		Query2:    FromQuery(r.Query2),
		ForceID:   uint64(r.ForceID),
		TxnID:     r.TxnID,
		SnapEpoch: r.SnapEpoch,
		NoVersion: r.NoVersion,
		MvccEpoch: r.MvccEpoch,
	}
	if r.Record != nil {
		w.Record = FromRecord(r.Record)
		w.HasRec = true
	}
	for _, m := range r.Mods {
		w.Mods = append(w.Mods, Keyword{Attr: m.Attr, Val: FromValue(m.Val)})
	}
	for _, t := range r.Target {
		w.Target = append(w.Target, TargetItem{Agg: int(t.Agg), Attr: t.Attr})
	}
	return w
}

// ToRequest converts back to a model request.
func (w Request) ToRequest() (*abdl.Request, error) {
	r := &abdl.Request{
		Kind:      abdl.Kind(w.Kind),
		By:        w.By,
		Common:    w.Common,
		ForceID:   abdm.RecordID(w.ForceID),
		TxnID:     w.TxnID,
		SnapEpoch: w.SnapEpoch,
		NoVersion: w.NoVersion,
		MvccEpoch: w.MvccEpoch,
	}
	var err error
	if r.Query, err = w.Query.ToQuery(); err != nil {
		return nil, err
	}
	if r.Query2, err = w.Query2.ToQuery(); err != nil {
		return nil, err
	}
	if w.HasRec {
		if r.Record, err = w.Record.ToRecord(); err != nil {
			return nil, err
		}
	}
	for _, m := range w.Mods {
		v, err := m.Val.ToValue()
		if err != nil {
			return nil, err
		}
		r.Mods = append(r.Mods, abdl.Modifier{Attr: m.Attr, Val: v})
	}
	for _, t := range w.Target {
		r.Target = append(r.Target, abdl.TargetItem{Agg: abdl.Aggregate(t.Agg), Attr: t.Attr})
	}
	return r, nil
}

// StoredRecord is the wire form of kdb.StoredRecord.
type StoredRecord struct {
	ID  uint64
	Rec Record
}

// AggValue is the wire form of kdb.AggValue.
type AggValue struct {
	Item TargetItem
	Val  Value
}

// Group is the wire form of kdb.Group.
type Group struct {
	By   Value
	Recs []StoredRecord
	Aggs []AggValue
}

// Result is the wire form of kdb.Result.
type Result struct {
	Op       int
	Records  []StoredRecord
	Groups   []Group
	Count    int
	Affected []uint64
	Cost     kdb.Cost
	Versions int // MVCC ops: live version count on the backend
}

// FromResult converts a model result.
func FromResult(r *kdb.Result) Result {
	w := Result{Op: int(r.Op), Count: r.Count, Cost: r.Cost, Versions: r.Versions}
	for _, id := range r.Affected {
		w.Affected = append(w.Affected, uint64(id))
	}
	for _, sr := range r.Records {
		w.Records = append(w.Records, StoredRecord{ID: uint64(sr.ID), Rec: FromRecord(sr.Rec)})
	}
	for _, g := range r.Groups {
		wg := Group{By: FromValue(g.By)}
		for _, sr := range g.Recs {
			wg.Recs = append(wg.Recs, StoredRecord{ID: uint64(sr.ID), Rec: FromRecord(sr.Rec)})
		}
		for _, a := range g.Aggs {
			wg.Aggs = append(wg.Aggs, AggValue{
				Item: TargetItem{Agg: int(a.Item.Agg), Attr: a.Item.Attr},
				Val:  FromValue(a.Val),
			})
		}
		w.Groups = append(w.Groups, wg)
	}
	return w
}

// ToResult converts back to a model result.
func (w Result) ToResult() (*kdb.Result, error) {
	r := &kdb.Result{Op: abdl.Kind(w.Op), Count: w.Count, Cost: w.Cost, Versions: w.Versions}
	for _, id := range w.Affected {
		r.Affected = append(r.Affected, abdm.RecordID(id))
	}
	toStored := func(ws []StoredRecord) ([]kdb.StoredRecord, error) {
		var out []kdb.StoredRecord
		for _, sr := range ws {
			rec, err := sr.Rec.ToRecord()
			if err != nil {
				return nil, err
			}
			out = append(out, kdb.StoredRecord{ID: abdm.RecordID(sr.ID), Rec: rec})
		}
		return out, nil
	}
	var err error
	if r.Records, err = toStored(w.Records); err != nil {
		return nil, err
	}
	for _, wg := range w.Groups {
		by, err := wg.By.ToValue()
		if err != nil {
			return nil, err
		}
		g := kdb.Group{By: by}
		if g.Recs, err = toStored(wg.Recs); err != nil {
			return nil, err
		}
		for _, a := range wg.Aggs {
			v, err := a.Val.ToValue()
			if err != nil {
				return nil, err
			}
			g.Aggs = append(g.Aggs, kdb.AggValue{
				Item: abdl.TargetItem{Agg: abdl.Aggregate(a.Item.Agg), Attr: a.Item.Attr},
				Val:  v,
			})
		}
		r.Groups = append(r.Groups, g)
	}
	return r, nil
}

// MigVersion is the wire form of kdb.MigVersion: one exported entry of a
// record's version chain (HasRec false = tombstone, Epoch 0 = pending).
type MigVersion struct {
	Epoch  uint64
	Txn    uint64
	Rec    Record
	HasRec bool
}

// Mig is the wire form of kdb.MigRecord: one record's live state plus its
// version chain, as streamed by the migration verbs.
type Mig struct {
	File    string
	ID      uint64
	Live    Record
	HasLive bool
	Chain   []MigVersion
}

// FromMig converts a model migration record.
func FromMig(m *kdb.MigRecord) Mig {
	w := Mig{File: m.File, ID: uint64(m.ID)}
	if m.Live != nil {
		w.Live = FromRecord(m.Live)
		w.HasLive = true
	}
	for _, v := range m.Chain {
		wv := MigVersion{Epoch: v.Epoch, Txn: v.Txn}
		if v.Rec != nil {
			wv.Rec = FromRecord(v.Rec)
			wv.HasRec = true
		}
		w.Chain = append(w.Chain, wv)
	}
	return w
}

// ToMig converts back to a model migration record.
func (w Mig) ToMig() (kdb.MigRecord, error) {
	m := kdb.MigRecord{File: w.File, ID: abdm.RecordID(w.ID)}
	var err error
	if w.HasLive {
		if m.Live, err = w.Live.ToRecord(); err != nil {
			return m, err
		}
	}
	for _, wv := range w.Chain {
		v := kdb.MigVersion{Epoch: wv.Epoch, Txn: wv.Txn}
		if wv.HasRec {
			if v.Rec, err = wv.Rec.ToRecord(); err != nil {
				return m, err
			}
		}
		m.Chain = append(m.Chain, v)
	}
	return m, nil
}

// Envelope is one bus message: either a request (controller→backend) or a
// reply (backend→controller). Err carries execution failures as text.
//
// The "execbatch" action carries N requests in Reqs and answers with one
// Result per request in Results, so a controller batch costs one message
// round per backend instead of N.
//
// The migration verbs stream partition pages for live migration: "export"
// sends Since/After/Limit and answers with Migs, Next and Epoch; "import"
// sends Migs and answers with N (records applied); "drop" sends IDs and
// answers with N (records removed).
type Envelope struct {
	Seq     uint64
	Req     *Request
	Reqs    []Request // "execbatch": the batched requests, in order
	Res     *Result
	Results []Result // "execbatch" reply: one result per request, in order
	Err     string
	ErrCode Code   // machine-readable classification of Err (CodeOK = none)
	Action  string // "exec", "execbatch", "len", "export", "import", "drop"
	N       int

	Since uint64   // "export": inclusive epoch lower bound
	After uint64   // "export": resume after this database key
	Limit int      // "export": page size (0 = unlimited)
	Migs  []Mig    // "export" reply / "import" request: the page
	Next  uint64   // "export" reply: key to resume after (0 = done)
	Epoch uint64   // "export" reply: source commit epoch at page start
	IDs   []uint64 // "drop": database keys to remove entirely
}
