package wire

// The framing-v2 binary codec for the controller→backend bus: every field
// encoded positionally with the frame.go primitives, no per-message type
// negotiation or reflection. The layout below is frozen — codec_test.go pins
// golden frames byte for byte.
//
// Field order (all fields always present, in this order):
//
//	Envelope := version seq action errcode err n
//	            req? reqs[] res? results[]
//	            since after limit migs[] next epoch ids[]
//
// Optional pointers are a presence bool followed by the value; collections a
// uvarint count followed by the elements.

import (
	"io"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// appendValue writes a value as kind, then the int, float and string slots;
// a slot the kind does not use is written as its zero.
func appendValue(b []byte, v abdm.Value) []byte {
	var f float64
	if v.Kind() == abdm.KindFloat {
		f = v.AsFloat() // AsFloat widens an int, whose float slot stays zero
	}
	b = append(b, byte(v.Kind()))
	b = appendVarint(b, v.AsInt())
	b = appendFloat(b, f)
	return appendString(b, v.AsString())
}

func (d *dec) value() abdm.Value {
	kind := abdm.Kind(d.byte())
	i, f, s := d.varint(), d.float(), d.string()
	switch kind {
	case abdm.KindNull:
		return abdm.Null()
	case abdm.KindInt:
		return abdm.Int(i)
	case abdm.KindFloat:
		return abdm.Float(f)
	case abdm.KindString:
		return abdm.String(s)
	}
	d.fail("unknown value kind %d", byte(kind))
	return abdm.Null()
}

func appendKeyword(b []byte, attr string, v abdm.Value) []byte {
	b = appendString(b, attr)
	return appendValue(b, v)
}

// appendRecord writes a record; a nil one is written as an empty record,
// which is how an absent record follows its presence bool.
func appendRecord(b []byte, r *abdm.Record) []byte {
	if r == nil {
		return appendString(appendUvarint(b, 0), "")
	}
	b = appendUvarint(b, uint64(len(r.Keywords)))
	for _, k := range r.Keywords {
		b = appendKeyword(b, k.Attr, k.Val)
	}
	return appendString(b, r.Text)
}

// appendOptRecord writes a record's presence bool, then the record.
func appendOptRecord(b []byte, r *abdm.Record) []byte {
	return appendRecord(appendBool(b, r != nil), r)
}

// record decodes a record. An empty one decodes with nil Keywords.
func (d *dec) record() *abdm.Record {
	kws, text := d.recordParts()
	return &abdm.Record{Keywords: kws, Text: text}
}

// optRecord decodes a presence bool and the record behind it: nil when the
// record is absent.
func (d *dec) optRecord() *abdm.Record {
	present := d.bool()
	kws, text := d.recordParts()
	if !present {
		return nil
	}
	return &abdm.Record{Keywords: kws, Text: text}
}

func (d *dec) recordParts() ([]abdm.Keyword, string) {
	var kws []abdm.Keyword
	if n := d.length(); n > 0 {
		kws = make([]abdm.Keyword, n)
		for i := range kws {
			kws[i] = abdm.Keyword{Attr: d.string(), Val: d.value()}
		}
	}
	return kws, d.string()
}

func appendQuery(b []byte, q abdm.Query) []byte {
	b = appendUvarint(b, uint64(len(q)))
	for _, conj := range q {
		b = appendUvarint(b, uint64(len(conj)))
		for _, p := range conj {
			b = appendString(b, p.Attr)
			b = append(b, byte(p.Op))
			b = appendValue(b, p.Val)
		}
	}
	return b
}

// query decodes a query: nil when it has no conjunctions.
func (d *dec) query() abdm.Query {
	n := d.length()
	if n == 0 {
		return nil
	}
	q := make(abdm.Query, n)
	for i := range q {
		q[i] = make(abdm.Conjunction, d.length())
		for j := range q[i] {
			q[i][j] = abdm.Predicate{Attr: d.string(), Op: abdm.Op(d.byte()), Val: d.value()}
		}
	}
	return q
}

func appendTargetItem(b []byte, t abdl.TargetItem) []byte {
	b = appendVarint(b, int64(t.Agg))
	return appendString(b, t.Attr)
}

func (d *dec) targetItem() abdl.TargetItem {
	return abdl.TargetItem{Agg: abdl.Aggregate(d.varint()), Attr: d.string()}
}

// appendRequest writes every request field but CacheKey, which is local to
// the process that rendered it.
func appendRequest(b []byte, r *abdl.Request) []byte {
	b = appendVarint(b, int64(r.Kind))
	b = appendOptRecord(b, r.Record)
	b = appendQuery(b, r.Query)
	b = appendUvarint(b, uint64(len(r.Mods)))
	for _, m := range r.Mods {
		b = appendKeyword(b, m.Attr, m.Val)
	}
	b = appendUvarint(b, uint64(len(r.Target)))
	for _, t := range r.Target {
		b = appendTargetItem(b, t)
	}
	b = appendString(b, r.By)
	b = appendString(b, r.Common)
	b = appendQuery(b, r.Query2)
	b = appendUvarint(b, uint64(r.ForceID))
	b = appendUvarint(b, r.TxnID)
	b = appendUvarint(b, r.SnapEpoch)
	b = appendBool(b, r.NoVersion)
	return appendUvarint(b, r.MvccEpoch)
}

func (d *dec) request() *abdl.Request {
	r := &abdl.Request{Kind: abdl.Kind(d.varint())}
	r.Record = d.optRecord()
	r.Query = d.query()
	if n := d.length(); n > 0 {
		r.Mods = make([]abdl.Modifier, n)
		for i := range r.Mods {
			r.Mods[i] = abdl.Modifier{Attr: d.string(), Val: d.value()}
		}
	}
	if n := d.length(); n > 0 {
		r.Target = make([]abdl.TargetItem, n)
		for i := range r.Target {
			r.Target[i] = d.targetItem()
		}
	}
	r.By = d.string()
	r.Common = d.string()
	r.Query2 = d.query()
	r.ForceID = abdm.RecordID(d.uvarint())
	r.TxnID = d.uvarint()
	r.SnapEpoch = d.uvarint()
	r.NoVersion = d.bool()
	r.MvccEpoch = d.uvarint()
	return r
}

func appendStored(b []byte, recs []kdb.StoredRecord) []byte {
	b = appendUvarint(b, uint64(len(recs)))
	for _, s := range recs {
		b = appendUvarint(b, uint64(s.ID))
		b = appendRecord(b, s.Rec)
	}
	return b
}

func (d *dec) stored() []kdb.StoredRecord {
	n := d.length()
	if n == 0 {
		return nil
	}
	recs := make([]kdb.StoredRecord, n)
	for i := range recs {
		recs[i] = kdb.StoredRecord{ID: abdm.RecordID(d.uvarint()), Rec: d.record()}
	}
	return recs
}

func appendResult(b []byte, r *kdb.Result) []byte {
	b = appendVarint(b, int64(r.Op))
	b = appendStored(b, r.Records)
	b = appendUvarint(b, uint64(len(r.Groups)))
	for _, g := range r.Groups {
		b = appendValue(b, g.By)
		b = appendStored(b, g.Recs)
		b = appendUvarint(b, uint64(len(g.Aggs)))
		for _, a := range g.Aggs {
			b = appendTargetItem(b, a.Item)
			b = appendValue(b, a.Val)
		}
	}
	b = appendVarint(b, int64(r.Count))
	b = appendUvarint(b, uint64(len(r.Affected)))
	for _, id := range r.Affected {
		b = appendUvarint(b, uint64(id))
	}
	b = appendVarint(b, int64(r.Cost.FilesTouched))
	b = appendVarint(b, int64(r.Cost.BlocksRead))
	b = appendVarint(b, int64(r.Cost.BlocksWrit))
	b = appendVarint(b, int64(r.Cost.DirProbes))
	b = appendVarint(b, int64(r.Cost.RecordsExam))
	return appendVarint(b, int64(r.Versions))
}

func (d *dec) result() *kdb.Result {
	r := &kdb.Result{Op: abdl.Kind(d.varint())}
	r.Records = d.stored()
	if n := d.length(); n > 0 {
		r.Groups = make([]kdb.Group, n)
		for i := range r.Groups {
			g := &r.Groups[i]
			g.By = d.value()
			g.Recs = d.stored()
			if m := d.length(); m > 0 {
				g.Aggs = make([]kdb.AggValue, m)
				for j := range g.Aggs {
					g.Aggs[j] = kdb.AggValue{Item: d.targetItem(), Val: d.value()}
				}
			}
		}
	}
	r.Count = int(d.varint())
	if n := d.length(); n > 0 {
		r.Affected = make([]abdm.RecordID, n)
		for i := range r.Affected {
			r.Affected[i] = abdm.RecordID(d.uvarint())
		}
	}
	r.Cost.FilesTouched = int(d.varint())
	r.Cost.BlocksRead = int(d.varint())
	r.Cost.BlocksWrit = int(d.varint())
	r.Cost.DirProbes = int(d.varint())
	r.Cost.RecordsExam = int(d.varint())
	r.Versions = int(d.varint())
	return r
}

// appendMig writes one migration record; a nil Live or version Rec (deleted,
// a tombstone) is an absent record.
func appendMig(b []byte, m *kdb.MigRecord) []byte {
	b = appendString(b, m.File)
	b = appendUvarint(b, uint64(m.ID))
	b = appendOptRecord(b, m.Live)
	b = appendUvarint(b, uint64(len(m.Chain)))
	for _, v := range m.Chain {
		b = appendUvarint(b, v.Epoch)
		b = appendUvarint(b, v.Txn)
		b = appendOptRecord(b, v.Rec)
	}
	return b
}

func (d *dec) mig() kdb.MigRecord {
	m := kdb.MigRecord{File: d.string(), ID: abdm.RecordID(d.uvarint())}
	m.Live = d.optRecord()
	if n := d.length(); n > 0 {
		m.Chain = make([]kdb.MigVersion, n)
		for i := range m.Chain {
			m.Chain[i] = kdb.MigVersion{Epoch: d.uvarint(), Txn: d.uvarint(), Rec: d.optRecord()}
		}
	}
	return m
}

// EncodeEnvelope renders one bus envelope as a framing-v2 payload.
func EncodeEnvelope(env *Envelope) []byte {
	b := make([]byte, 0, 128)
	b = append(b, Version)
	b = appendUvarint(b, env.Seq)
	b = appendString(b, env.Action)
	b = appendUvarint(b, uint64(env.ErrCode))
	b = appendString(b, env.Err)
	b = appendVarint(b, int64(env.N))
	b = appendBool(b, env.Req != nil)
	if env.Req != nil {
		b = appendRequest(b, env.Req)
	}
	b = appendUvarint(b, uint64(len(env.Reqs)))
	for _, r := range env.Reqs {
		b = appendRequest(b, r)
	}
	b = appendBool(b, env.Res != nil)
	if env.Res != nil {
		b = appendResult(b, env.Res)
	}
	b = appendUvarint(b, uint64(len(env.Results)))
	for _, r := range env.Results {
		b = appendResult(b, r)
	}
	b = appendUvarint(b, env.Since)
	b = appendUvarint(b, env.After)
	b = appendVarint(b, int64(env.Limit))
	b = appendUvarint(b, uint64(len(env.Migs)))
	for i := range env.Migs {
		b = appendMig(b, &env.Migs[i])
	}
	b = appendUvarint(b, env.Next)
	b = appendUvarint(b, env.Epoch)
	b = appendUvarint(b, uint64(len(env.IDs)))
	for _, id := range env.IDs {
		b = appendUvarint(b, id)
	}
	return b
}

// DecodeEnvelope parses a framing-v2 payload back into a bus envelope.
func DecodeEnvelope(payload []byte) (*Envelope, error) {
	d := &dec{b: payload}
	d.checkVersion()
	var env Envelope
	env.Seq = d.uvarint()
	env.Action = d.string()
	env.ErrCode = Code(d.uvarint())
	env.Err = d.string()
	env.N = int(d.varint())
	if d.bool() {
		env.Req = d.request()
	}
	if n := d.length(); n > 0 {
		env.Reqs = make([]*abdl.Request, n)
		for i := range env.Reqs {
			env.Reqs[i] = d.request()
		}
	}
	if d.bool() {
		env.Res = d.result()
	}
	if n := d.length(); n > 0 {
		env.Results = make([]*kdb.Result, n)
		for i := range env.Results {
			env.Results[i] = d.result()
		}
	}
	env.Since = d.uvarint()
	env.After = d.uvarint()
	env.Limit = int(d.varint())
	if n := d.length(); n > 0 {
		env.Migs = make([]kdb.MigRecord, n)
		for i := range env.Migs {
			env.Migs[i] = d.mig()
		}
	}
	env.Next = d.uvarint()
	env.Epoch = d.uvarint()
	if n := d.length(); n > 0 {
		env.IDs = make([]uint64, n)
		for i := range env.IDs {
			env.IDs[i] = d.uvarint()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &env, nil
}

// WriteEnvelope frames and writes one envelope.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	return WriteFrame(w, EncodeEnvelope(env))
}

// ReadEnvelope reads and parses one framed envelope (max 0 = DefaultMaxFrame).
func ReadEnvelope(r io.Reader, max int) (*Envelope, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	return DecodeEnvelope(payload)
}
