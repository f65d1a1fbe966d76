// Package abdl implements the attribute-based data language (ABDL), the
// kernel data language of the Multi-Lingual Database System.
//
// ABDL provides five operations — INSERT, DELETE, UPDATE, RETRIEVE, and
// RETRIEVE-COMMON — each qualified as the model requires: INSERT by a keyword
// list, DELETE by a query, UPDATE by a query and a modifier, RETRIEVE by a
// query, a target list and an optional by-clause. A transaction groups two or
// more sequentially executed requests.
package abdl

import (
	"fmt"
	"strings"

	"mlds/internal/abdm"
)

// Kind identifies an ABDL operation.
type Kind int

// The five ABDL operations, plus the kernel-internal MVCC administration
// operations the transaction manager broadcasts to every backend. The MVCC
// kinds have no ABDL text form: they are not expressible by any language
// interface and never appear in the kc trace or journal.
const (
	Insert Kind = iota
	Delete
	Update
	Retrieve
	RetrieveCommon

	// MvccCommit stamps every pending version written under TxnID with the
	// commit epoch MvccEpoch, making the transaction visible to snapshots
	// taken at or after that epoch.
	MvccCommit
	// MvccAbort discards every pending version written under TxnID.
	MvccAbort
	// MvccGC prunes versions superseded at or below the watermark epoch
	// MvccEpoch — versions no live snapshot can still observe.
	MvccGC
)

var kindNames = [...]string{"INSERT", "DELETE", "UPDATE", "RETRIEVE", "RETRIEVE-COMMON",
	"MVCC-COMMIT", "MVCC-ABORT", "MVCC-GC"}

// String returns the operation's ABDL spelling.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Aggregate is an optional aggregate operation applied to a target-list item.
type Aggregate int

// Aggregate operations.
const (
	AggNone Aggregate = iota
	AggAvg
	AggCount
	AggSum
	AggMax
	AggMin
)

var aggNames = [...]string{"", "AVG", "COUNT", "SUM", "MAX", "MIN"}

// String returns the aggregate's ABDL spelling ("" for none).
func (a Aggregate) String() string {
	if int(a) < len(aggNames) {
		return aggNames[a]
	}
	return fmt.Sprintf("agg(%d)", int(a))
}

// AllAttrs is the target-list sentinel requesting every attribute of each
// retrieved record ("all attributes" in the thesis's request sketches).
const AllAttrs = "*"

// TargetItem is one element of a RETRIEVE target list: an output attribute,
// optionally wrapped in an aggregate.
type TargetItem struct {
	Agg  Aggregate
	Attr string
}

// String renders the item as attr or AGG(attr).
func (t TargetItem) String() string {
	if t.Agg == AggNone {
		if t.Attr == AllAttrs {
			return "all attributes"
		}
		return t.Attr
	}
	return t.Agg.String() + "(" + t.Attr + ")"
}

// Modifier is one UPDATE assignment: the named attribute of every qualifying
// record is set to the value.
type Modifier struct {
	Attr string
	Val  abdm.Value
}

// String renders the modifier as (attr = value).
func (m Modifier) String() string {
	return "(" + m.Attr + " = " + m.Val.String() + ")"
}

// Request is one ABDL request.
type Request struct {
	Kind   Kind
	Record *abdm.Record // INSERT: the keyword list to store
	Query  abdm.Query   // DELETE, UPDATE, RETRIEVE: the qualification
	Mods   []Modifier   // UPDATE: how the target records change
	Target []TargetItem // RETRIEVE: output attributes
	By     string       // RETRIEVE: optional by-clause attribute
	Common string       // RETRIEVE-COMMON: the common attribute
	Query2 abdm.Query   // RETRIEVE-COMMON: the second qualification

	// ForceID, when nonzero, pins the database key an INSERT stores the
	// record under, replacing any existing record with that key. The kernel's
	// replication layer sets it so every copy of a record lives under one
	// key (and so replicated INSERTs are idempotent under retry). On a
	// DELETE it targets exactly that key, ignoring the qualification — the
	// transaction manager's undo path erases records this way. It is not
	// expressible in ABDL text.
	ForceID abdm.RecordID

	// TxnID, when nonzero on a mutation, marks the versions it writes as
	// pending under that transaction: invisible to snapshots until an
	// MVCC-COMMIT stamps them with a commit epoch. The transaction manager
	// sets it; zero (bulk load, journal replay, auto-stamped paths) commits
	// the version immediately at the store's current epoch. On MVCC-COMMIT
	// and MVCC-ABORT it names the transaction being stamped or discarded.
	// Not expressible in ABDL text.
	TxnID uint64

	// SnapEpoch, when nonzero on a RETRIEVE or RETRIEVE-COMMON, reads from
	// the version chains as of that commit epoch instead of the live store —
	// a lock-free snapshot read. Mutations reject it. Not expressible in
	// ABDL text.
	SnapEpoch uint64

	// NoVersion suppresses version-chain bookkeeping for a mutation. The
	// transaction manager's undo path sets it: undo restores the live store
	// to the chain's newest committed state, so recording it as a fresh
	// version would only duplicate history. Not expressible in ABDL text.
	NoVersion bool

	// MvccEpoch carries the commit epoch of an MVCC-COMMIT or the watermark
	// of an MVCC-GC. Not expressible in ABDL text.
	MvccEpoch uint64

	// CacheKey, when set on a RETRIEVE, is its canonical text form — what
	// String returns — rendered ahead of time. The multi-backend controller
	// fills it on its own copy of the request before fanning that copy out,
	// so the backends' result caches share one rendering instead of each
	// building their own. Anything that copies a request and then changes it
	// must clear the key. It does not travel over the wire.
	CacheKey string
}

// NewInsert builds an INSERT request for the record.
func NewInsert(rec *abdm.Record) *Request { return &Request{Kind: Insert, Record: rec} }

// NewDelete builds a DELETE request qualified by q.
func NewDelete(q abdm.Query) *Request { return &Request{Kind: Delete, Query: q} }

// NewUpdate builds an UPDATE request qualified by q applying mods.
func NewUpdate(q abdm.Query, mods ...Modifier) *Request {
	return &Request{Kind: Update, Query: q, Mods: mods}
}

// NewRetrieve builds a RETRIEVE request qualified by q returning the target
// attributes (AllAttrs for every attribute).
func NewRetrieve(q abdm.Query, target ...string) *Request {
	r := &Request{Kind: Retrieve, Query: q}
	for _, a := range target {
		r.Target = append(r.Target, TargetItem{Attr: a})
	}
	return r
}

// WithBy sets the by-clause attribute and returns the request.
func (r *Request) WithBy(attr string) *Request {
	r.By = attr
	return r
}

// Validate performs structural checks: the right qualifications must be
// present for the operation.
func (r *Request) Validate() error {
	if r.SnapEpoch != 0 && r.Kind != Retrieve && r.Kind != RetrieveCommon {
		return fmt.Errorf("abdl: %v cannot run against a snapshot", r.Kind)
	}
	switch r.Kind {
	case Insert:
		if r.Record == nil || len(r.Record.Keywords) == 0 {
			return fmt.Errorf("abdl: INSERT requires a keyword list")
		}
		if r.Record.File() == "" {
			return fmt.Errorf("abdl: INSERT keyword list must begin with a FILE keyword")
		}
	case Delete:
		if len(r.Query) == 0 {
			return fmt.Errorf("abdl: DELETE requires a query")
		}
	case Update:
		if len(r.Query) == 0 {
			return fmt.Errorf("abdl: UPDATE requires a query")
		}
		if len(r.Mods) == 0 {
			return fmt.Errorf("abdl: UPDATE requires a modifier")
		}
	case Retrieve:
		if len(r.Target) == 0 {
			return fmt.Errorf("abdl: RETRIEVE requires a target list")
		}
	case RetrieveCommon:
		if len(r.Target) == 0 {
			return fmt.Errorf("abdl: RETRIEVE-COMMON requires a target list")
		}
		if r.Common == "" {
			return fmt.Errorf("abdl: RETRIEVE-COMMON requires a common attribute")
		}
		if len(r.Query2) == 0 {
			return fmt.Errorf("abdl: RETRIEVE-COMMON requires a second query")
		}
	case MvccCommit:
		if r.TxnID == 0 {
			return fmt.Errorf("abdl: MVCC-COMMIT requires a transaction id")
		}
		if r.MvccEpoch == 0 {
			return fmt.Errorf("abdl: MVCC-COMMIT requires a commit epoch")
		}
	case MvccAbort:
		if r.TxnID == 0 {
			return fmt.Errorf("abdl: MVCC-ABORT requires a transaction id")
		}
	case MvccGC:
		if r.MvccEpoch == 0 {
			return fmt.Errorf("abdl: MVCC-GC requires a watermark epoch")
		}
	default:
		return fmt.Errorf("abdl: unknown request kind %d", r.Kind)
	}
	return nil
}

// String renders the request in the canonical ABDL text form accepted by
// Parse.
func (r *Request) String() string {
	var b strings.Builder
	b.WriteString(r.Kind.String())
	b.WriteByte(' ')
	switch r.Kind {
	case Insert:
		b.WriteString(r.Record.String())
	case Delete:
		b.WriteString(r.Query.String())
	case Update:
		b.WriteString(r.Query.String())
		for _, m := range r.Mods {
			b.WriteByte(' ')
			b.WriteString(m.String())
		}
	case Retrieve, RetrieveCommon:
		b.WriteString(r.Query.String())
		b.WriteString(" (")
		for i, t := range r.Target {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.String())
		}
		b.WriteByte(')')
		if r.Kind == RetrieveCommon {
			b.WriteString(" COMMON ")
			b.WriteString(r.Common)
			b.WriteByte(' ')
			b.WriteString(r.Query2.String())
		}
		if r.By != "" {
			b.WriteString(" BY ")
			b.WriteString(r.By)
		}
	case MvccCommit:
		fmt.Fprintf(&b, "txn=%d epoch=%d", r.TxnID, r.MvccEpoch)
	case MvccAbort:
		fmt.Fprintf(&b, "txn=%d", r.TxnID)
	case MvccGC:
		fmt.Fprintf(&b, "watermark=%d", r.MvccEpoch)
	}
	return b.String()
}

// NewRetrieveCommon builds a RETRIEVE-COMMON request: it returns the target
// projections of records matching q1 whose value for the common attribute
// also occurs under that attribute in some record matching q2.
func NewRetrieveCommon(q1 abdm.Query, common string, q2 abdm.Query, target ...string) *Request {
	r := &Request{Kind: RetrieveCommon, Query: q1, Common: common, Query2: q2}
	for _, a := range target {
		r.Target = append(r.Target, TargetItem{Attr: a})
	}
	return r
}

// Transaction is a group of sequentially executed requests.
type Transaction []*Request

// String renders the transaction one request per line.
func (t Transaction) String() string {
	parts := make([]string, len(t))
	for i, r := range t {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}
