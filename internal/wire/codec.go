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

import "io"

func appendValue(b []byte, v Value) []byte {
	b = append(b, v.Kind)
	b = appendVarint(b, v.I)
	b = appendFloat(b, v.F)
	return appendString(b, v.S)
}

func (d *dec) value() Value {
	var v Value
	v.Kind = d.byte()
	v.I = d.varint()
	v.F = d.float()
	v.S = d.string()
	return v
}

func appendKeyword(b []byte, k Keyword) []byte {
	b = appendString(b, k.Attr)
	return appendValue(b, k.Val)
}

func (d *dec) keyword() Keyword {
	return Keyword{Attr: d.string(), Val: d.value()}
}

func appendRecord(b []byte, r Record) []byte {
	b = appendUvarint(b, uint64(len(r.Keywords)))
	for _, k := range r.Keywords {
		b = appendKeyword(b, k)
	}
	return appendString(b, r.Text)
}

func (d *dec) record() Record {
	var r Record
	if n := d.length(); n > 0 {
		r.Keywords = make([]Keyword, n)
		for i := range r.Keywords {
			r.Keywords[i] = d.keyword()
		}
	}
	r.Text = d.string()
	return r
}

func appendQuery(b []byte, q Query) []byte {
	b = appendUvarint(b, uint64(len(q)))
	for _, conj := range q {
		b = appendUvarint(b, uint64(len(conj)))
		for _, p := range conj {
			b = appendString(b, p.Attr)
			b = append(b, p.Op)
			b = appendValue(b, p.Val)
		}
	}
	return b
}

func (d *dec) query() Query {
	n := d.length()
	if n == 0 {
		return nil
	}
	q := make(Query, n)
	for i := range q {
		m := d.length()
		q[i] = make([]Predicate, m)
		for j := range q[i] {
			q[i][j] = Predicate{Attr: d.string(), Op: d.byte(), Val: d.value()}
		}
	}
	return q
}

func appendTargetItem(b []byte, t TargetItem) []byte {
	b = appendVarint(b, int64(t.Agg))
	return appendString(b, t.Attr)
}

func (d *dec) targetItem() TargetItem {
	return TargetItem{Agg: int(d.varint()), Attr: d.string()}
}

func appendRequest(b []byte, r Request) []byte {
	b = appendVarint(b, int64(r.Kind))
	b = appendBool(b, r.HasRec)
	b = appendRecord(b, r.Record)
	b = appendQuery(b, r.Query)
	b = appendUvarint(b, uint64(len(r.Mods)))
	for _, m := range r.Mods {
		b = appendKeyword(b, m)
	}
	b = appendUvarint(b, uint64(len(r.Target)))
	for _, t := range r.Target {
		b = appendTargetItem(b, t)
	}
	b = appendString(b, r.By)
	b = appendString(b, r.Common)
	b = appendQuery(b, r.Query2)
	b = appendUvarint(b, r.ForceID)
	b = appendUvarint(b, r.TxnID)
	b = appendUvarint(b, r.SnapEpoch)
	b = appendBool(b, r.NoVersion)
	return appendUvarint(b, r.MvccEpoch)
}

func (d *dec) request() Request {
	var r Request
	r.Kind = int(d.varint())
	r.HasRec = d.bool()
	r.Record = d.record()
	r.Query = d.query()
	if n := d.length(); n > 0 {
		r.Mods = make([]Keyword, n)
		for i := range r.Mods {
			r.Mods[i] = d.keyword()
		}
	}
	if n := d.length(); n > 0 {
		r.Target = make([]TargetItem, n)
		for i := range r.Target {
			r.Target[i] = d.targetItem()
		}
	}
	r.By = d.string()
	r.Common = d.string()
	r.Query2 = d.query()
	r.ForceID = d.uvarint()
	r.TxnID = d.uvarint()
	r.SnapEpoch = d.uvarint()
	r.NoVersion = d.bool()
	r.MvccEpoch = d.uvarint()
	return r
}

func appendStored(b []byte, s StoredRecord) []byte {
	b = appendUvarint(b, s.ID)
	return appendRecord(b, s.Rec)
}

func (d *dec) stored() StoredRecord {
	return StoredRecord{ID: d.uvarint(), Rec: d.record()}
}

func appendResult(b []byte, r Result) []byte {
	b = appendVarint(b, int64(r.Op))
	b = appendUvarint(b, uint64(len(r.Records)))
	for _, s := range r.Records {
		b = appendStored(b, s)
	}
	b = appendUvarint(b, uint64(len(r.Groups)))
	for _, g := range r.Groups {
		b = appendValue(b, g.By)
		b = appendUvarint(b, uint64(len(g.Recs)))
		for _, s := range g.Recs {
			b = appendStored(b, s)
		}
		b = appendUvarint(b, uint64(len(g.Aggs)))
		for _, a := range g.Aggs {
			b = appendTargetItem(b, a.Item)
			b = appendValue(b, a.Val)
		}
	}
	b = appendVarint(b, int64(r.Count))
	b = appendUvarint(b, uint64(len(r.Affected)))
	for _, id := range r.Affected {
		b = appendUvarint(b, id)
	}
	b = appendVarint(b, int64(r.Cost.FilesTouched))
	b = appendVarint(b, int64(r.Cost.BlocksRead))
	b = appendVarint(b, int64(r.Cost.BlocksWrit))
	b = appendVarint(b, int64(r.Cost.DirProbes))
	b = appendVarint(b, int64(r.Cost.RecordsExam))
	return appendVarint(b, int64(r.Versions))
}

func (d *dec) result() Result {
	var r Result
	r.Op = int(d.varint())
	if n := d.length(); n > 0 {
		r.Records = make([]StoredRecord, n)
		for i := range r.Records {
			r.Records[i] = d.stored()
		}
	}
	if n := d.length(); n > 0 {
		r.Groups = make([]Group, n)
		for i := range r.Groups {
			g := &r.Groups[i]
			g.By = d.value()
			if m := d.length(); m > 0 {
				g.Recs = make([]StoredRecord, m)
				for j := range g.Recs {
					g.Recs[j] = d.stored()
				}
			}
			if m := d.length(); m > 0 {
				g.Aggs = make([]AggValue, m)
				for j := range g.Aggs {
					g.Aggs[j] = AggValue{Item: d.targetItem(), Val: d.value()}
				}
			}
		}
	}
	r.Count = int(d.varint())
	if n := d.length(); n > 0 {
		r.Affected = make([]uint64, n)
		for i := range r.Affected {
			r.Affected[i] = d.uvarint()
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

func appendMig(b []byte, m Mig) []byte {
	b = appendString(b, m.File)
	b = appendUvarint(b, m.ID)
	b = appendBool(b, m.HasLive)
	b = appendRecord(b, m.Live)
	b = appendUvarint(b, uint64(len(m.Chain)))
	for _, v := range m.Chain {
		b = appendUvarint(b, v.Epoch)
		b = appendUvarint(b, v.Txn)
		b = appendBool(b, v.HasRec)
		b = appendRecord(b, v.Rec)
	}
	return b
}

func (d *dec) mig() Mig {
	var m Mig
	m.File = d.string()
	m.ID = d.uvarint()
	m.HasLive = d.bool()
	m.Live = d.record()
	if n := d.length(); n > 0 {
		m.Chain = make([]MigVersion, n)
		for i := range m.Chain {
			v := &m.Chain[i]
			v.Epoch = d.uvarint()
			v.Txn = d.uvarint()
			v.HasRec = d.bool()
			v.Rec = d.record()
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
		b = appendRequest(b, *env.Req)
	}
	b = appendUvarint(b, uint64(len(env.Reqs)))
	for _, r := range env.Reqs {
		b = appendRequest(b, r)
	}
	b = appendBool(b, env.Res != nil)
	if env.Res != nil {
		b = appendResult(b, *env.Res)
	}
	b = appendUvarint(b, uint64(len(env.Results)))
	for _, r := range env.Results {
		b = appendResult(b, r)
	}
	b = appendUvarint(b, env.Since)
	b = appendUvarint(b, env.After)
	b = appendVarint(b, int64(env.Limit))
	b = appendUvarint(b, uint64(len(env.Migs)))
	for _, m := range env.Migs {
		b = appendMig(b, m)
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
		req := d.request()
		env.Req = &req
	}
	if n := d.length(); n > 0 {
		env.Reqs = make([]Request, n)
		for i := range env.Reqs {
			env.Reqs[i] = d.request()
		}
	}
	if d.bool() {
		res := d.result()
		env.Res = &res
	}
	if n := d.length(); n > 0 {
		env.Results = make([]Result, n)
		for i := range env.Results {
			env.Results[i] = d.result()
		}
	}
	env.Since = d.uvarint()
	env.After = d.uvarint()
	env.Limit = int(d.varint())
	if n := d.length(); n > 0 {
		env.Migs = make([]Mig, n)
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
