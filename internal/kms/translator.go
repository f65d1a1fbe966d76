// Package kms implements the kernel mapping system of the CODASYL-DML
// language interface: it validates each DML statement and maps it into one
// or more ABDL requests executed through the kernel controller, maintaining
// the Currency Indicator Table along the way.
//
// The translator works against either target:
//
//   - an AB(network) database — a natively-defined network schema, where
//     every set's membership attribute lives in the member file; or
//   - an AB(functional) database — a functional schema transformed by
//     xform.FunToNet, where sets representing ISA relationships share keys
//     with their owners and sets representing Daplex functions place their
//     membership attribute by function direction (the thesis's Chapter VI
//     modifications).
package kms

import (
	"context"
	"errors"
	"fmt"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/currency"
	"mlds/internal/funcmodel"
	"mlds/internal/kc"
	"mlds/internal/kdb"
	"mlds/internal/netmodel"
	"mlds/internal/xform"
)

// Abort conditions. They correspond to the thesis's translation rules; the
// session surfaces them to the user without terminating.
var (
	ErrNoCurrentRunUnit = errors.New("kms: no current of run-unit")
	ErrNoSetOccurrence  = errors.New("kms: no current set occurrence established")
	ErrNoBuffer         = errors.New("kms: set occurrence not yet retrieved (issue a FIND FIRST/LAST)")
	ErrNotMember        = errors.New("kms: record type is not a member of the set")
	ErrAutomaticSet     = errors.New("kms: set has automatic insertion; CONNECT/DISCONNECT not allowed")
	ErrNotConnected     = errors.New("kms: record is not connected to the set occurrence")
	ErrDuplicate        = errors.New("kms: DUPLICATES ARE NOT ALLOWED violation")
	ErrOverlap          = errors.New("kms: overlap constraint violation")
	ErrEraseOwner       = errors.New("kms: ERASE aborted: record owns a non-empty set occurrence")
	ErrEraseReferenced  = errors.New("kms: ERASE aborted: record is referenced by a database function")
	ErrEraseAll         = errors.New("kms: ERASE ALL is not translated: the CODASYL and Daplex constraints clash; use repeated ERASE statements")
)

// Outcome reports what one DML statement did.
type Outcome struct {
	Stmt     string                // the statement, as parsed
	EndOfSet bool                  // a FIND ran off the end of its set
	Found    bool                  // a FIND made a record current
	Record   string                // record type involved
	Key      currency.Key          // database key made current (FIND/STORE)
	Values   map[string]abdm.Value // GET results
	Requests []string              // ABDL requests issued, in order
}

// Translator is one user's CODASYL-DML session state against one database.
type Translator struct {
	net     *netmodel.Schema
	ab      *xform.ABSchema
	mapping *xform.Mapping    // nil for native network databases
	fun     *funcmodel.Schema // nil for native network databases
	kc      *kc.Controller

	cit        *currency.CIT
	uwa        *currency.WorkArea
	currentRec *abdm.Record // cached content of the run-unit current
	issued     []string     // ABDL requests of the statement in progress
}

// NewNetwork builds a translator for a natively-defined network database.
func NewNetwork(net *netmodel.Schema, ab *xform.ABSchema, ctrl *kc.Controller) *Translator {
	return &Translator{
		net: net, ab: ab, kc: ctrl,
		cit: currency.NewCIT(), uwa: currency.NewWorkArea(),
	}
}

// NewFunctional builds a translator for a functional database accessed
// through its transformed network schema.
func NewFunctional(m *xform.Mapping, ab *xform.ABSchema, ctrl *kc.Controller) *Translator {
	return &Translator{
		net: m.Net, ab: ab, mapping: m, fun: m.Fun, kc: ctrl,
		cit: currency.NewCIT(), uwa: currency.NewWorkArea(),
	}
}

// CIT exposes the session's currency indicator table (read-mostly; tests and
// the formatting subsystem use it).
func (t *Translator) CIT() *currency.CIT { return t.cit }

// UWA exposes the session's user work area.
func (t *Translator) UWA() *currency.WorkArea { return t.uwa }

// Schema returns the (possibly transformed) network schema the session
// addresses.
func (t *Translator) Schema() *netmodel.Schema { return t.net }

// ExecCtx validates and executes one DML statement under the request
// context: every kernel request it issues carries ctx, so the controller
// joins the context's transaction and attaches its trace spans beneath the
// caller's. The outcome lists the requests this translator issued for the
// statement — and only those, though other sessions share the controller.
func (t *Translator) ExecCtx(ctx context.Context, st codasyl.Stmt) (*Outcome, error) {
	out := &Outcome{Stmt: st.String()}
	var err error
	switch v := st.(type) {
	case *codasyl.Move:
		err = t.execMove(v, out)
	case *codasyl.Find:
		err = t.execFind(ctx, v, out)
	case *codasyl.Get:
		err = t.execGet(ctx, v, out)
	case *codasyl.Store:
		err = t.execStore(ctx, v, out)
	case *codasyl.Connect:
		err = t.execConnect(ctx, v, out)
	case *codasyl.Disconnect:
		err = t.execDisconnect(ctx, v, out)
	case *codasyl.Modify:
		err = t.execModify(ctx, v, out)
	case *codasyl.Erase:
		err = t.execErase(ctx, v, out)
	default:
		err = fmt.Errorf("kms: unsupported statement %T", st)
	}
	out.Requests, t.issued = t.issued, nil
	return out, err
}

// kcExec issues one kernel request under the statement's context and records
// its ABDL text in the statement's request list.
func (t *Translator) kcExec(ctx context.Context, req *abdl.Request) (*kdb.Result, error) {
	t.issued = append(t.issued, req.String())
	return t.kc.ExecCtx(ctx, req)
}

func (t *Translator) execMove(m *codasyl.Move, out *Outcome) error {
	rec, ok := t.net.Record(m.Record)
	if !ok {
		return fmt.Errorf("kms: MOVE names unknown record type %q", m.Record)
	}
	if _, ok := rec.Attribute(m.Item); !ok {
		return fmt.Errorf("kms: MOVE names unknown item %q of %q", m.Item, m.Record)
	}
	val, err := coerceValue(m.Value, t.attrKind(m.Item))
	if err != nil {
		return fmt.Errorf("kms: MOVE %s: %w", m.Item, err)
	}
	t.uwa.Set(m.Record, m.Item, val)
	out.Record = m.Record
	return nil
}

// attrKind reports the kernel kind of an attribute.
func (t *Translator) attrKind(attr string) abdm.Kind {
	k, _ := t.ab.Dir.AttrKind(attr)
	return k
}

// coerceValue converts a literal to the attribute's declared kind where the
// conversion is exact (int↔float); anything else must match already.
func coerceValue(v abdm.Value, want abdm.Kind) (abdm.Value, error) {
	if v.IsNull() || v.Kind() == want {
		return v, nil
	}
	switch {
	case v.Kind() == abdm.KindInt && want == abdm.KindFloat:
		return abdm.Float(float64(v.AsInt())), nil
	case v.Kind() == abdm.KindFloat && want == abdm.KindInt:
		f := v.AsFloat()
		if f == float64(int64(f)) {
			return abdm.Int(int64(f)), nil
		}
		return abdm.Value{}, fmt.Errorf("value %v not an integer", v)
	default:
		return abdm.Value{}, fmt.Errorf("value %v is %v, attribute wants %v", v, v.Kind(), want)
	}
}

// --- shared request helpers ---------------------------------------------

// filePred builds the (FILE = f) predicate.
func filePred(f string) abdm.Predicate {
	return abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(f)}
}

// keyPred builds the (keyattr = key) predicate for a file.
func (t *Translator) keyPred(file string, key currency.Key) abdm.Predicate {
	return abdm.Predicate{Attr: t.ab.KeyOf(file), Op: abdm.OpEq, Val: abdm.Int(key)}
}

// retrieveAll runs a RETRIEVE of all attributes and returns the records.
func (t *Translator) retrieveAll(ctx context.Context, q abdm.Query) ([]*abdm.Record, error) {
	res, err := t.kcExec(ctx, abdl.NewRetrieve(q, abdl.AllAttrs))
	if err != nil {
		return nil, err
	}
	out := make([]*abdm.Record, len(res.Records))
	for i, sr := range res.Records {
		out[i] = sr.Rec
	}
	return out, nil
}

// retrieveByKey fetches every kernel record (copy) of the entity with the
// key in the file.
func (t *Translator) retrieveByKey(ctx context.Context, file string, key currency.Key) ([]*abdm.Record, error) {
	return t.retrieveAll(ctx, abdm.And(filePred(file), t.keyPred(file, key)))
}

// keyOf extracts a record's database key given its file.
func (t *Translator) keyOf(file string, rec *abdm.Record) (currency.Key, bool) {
	v, ok := rec.Get(t.ab.KeyOf(file))
	if !ok || v.Kind() != abdm.KindInt {
		return 0, false
	}
	return v.AsInt(), true
}

// dedupeByKey keeps the first kernel record per database key, preserving
// order. Multi-valued representations store several copies per entity.
func (t *Translator) dedupeByKey(file string, recs []*abdm.Record) []*abdm.Record {
	seen := make(map[currency.Key]bool)
	var out []*abdm.Record
	for _, r := range recs {
		k, ok := t.keyOf(file, r)
		if !ok {
			out = append(out, r)
			continue
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// setInfo returns the kernel placement and (for functional targets) the
// transformation provenance of a set.
func (t *Translator) setInfo(set string) (*netmodel.SetType, xform.ABSet, error) {
	st, ok := t.net.Set(set)
	if !ok {
		return nil, xform.ABSet{}, fmt.Errorf("kms: unknown set type %q", set)
	}
	aset, ok := t.ab.Sets[set]
	if !ok {
		return nil, xform.ABSet{}, fmt.Errorf("kms: set %q has no kernel placement", set)
	}
	return st, aset, nil
}

// members retrieves every member record of the set occurrence owned by
// ownerKey, deduplicated, in key order. The retrieval strategy depends on
// where the set's membership attribute lives.
func (t *Translator) members(ctx context.Context, st *netmodel.SetType, aset xform.ABSet, ownerKey currency.Key) ([]*abdm.Record, error) {
	switch aset.Place {
	case xform.PlaceNone:
		// SYSTEM-owned singular set: every record of the member file.
		recs, err := t.retrieveAll(ctx, abdm.And(filePred(st.Member)))
		if err != nil {
			return nil, err
		}
		return t.dedupeByKey(st.Member, recs), nil
	case xform.PlaceSharedKey:
		// ISA: the member record shares the owner's key.
		recs, err := t.retrieveAll(ctx, abdm.And(filePred(st.Member), t.keyPred(st.Member, ownerKey)))
		if err != nil {
			return nil, err
		}
		return t.dedupeByKey(st.Member, recs), nil
	case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
		// Membership attribute in the member (or LINK) file holds the owner key.
		recs, err := t.retrieveAll(ctx, abdm.And(
			filePred(aset.File),
			abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Int(ownerKey)},
		))
		if err != nil {
			return nil, err
		}
		return t.dedupeByKey(aset.File, recs), nil
	case xform.PlaceOwnerAttr:
		// The owner file holds one record copy per member key: an auxiliary
		// retrieve collects the keys, a second fetches the member records.
		ownerRecs, err := t.kcExec(ctx, abdl.NewRetrieve(
			abdm.And(filePred(st.Owner), t.keyPred(st.Owner, ownerKey)),
			aset.Attr,
		))
		if err != nil {
			return nil, err
		}
		var keys []currency.Key
		seen := make(map[currency.Key]bool)
		for _, sr := range ownerRecs.Records {
			if v, ok := sr.Rec.Get(aset.Attr); ok && v.Kind() == abdm.KindInt {
				if k := v.AsInt(); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		if len(keys) == 0 {
			return nil, nil
		}
		q := make(abdm.Query, 0, len(keys))
		for _, k := range keys {
			q = append(q, abdm.Conjunction{filePred(st.Member), t.keyPred(st.Member, k)})
		}
		recs, err := t.retrieveAll(ctx, q)
		if err != nil {
			return nil, err
		}
		return t.dedupeByKey(st.Member, recs), nil
	default:
		return nil, fmt.Errorf("kms: set %q has unknown placement %v", st.Name, aset.Place)
	}
}

// makeCurrent installs a record as the current of the run-unit and of its
// record type, and updates every set currency the record participates in.
func (t *Translator) makeCurrent(record string, rec *abdm.Record) (currency.Key, error) {
	key, ok := t.keyOf(record, rec)
	if !ok {
		return 0, fmt.Errorf("kms: record of %q lacks its key attribute", record)
	}
	t.cit.SetRunUnit(record, key)
	t.currentRec = rec
	for _, st := range t.net.Sets {
		aset := t.ab.Sets[st.Name]
		if st.Owner == record {
			t.cit.SetSetCurrent(currency.SetCurrent{
				Set: st.Name, OwnerRec: record, OwnerKey: key, MemberRec: st.Member,
			})
		}
		if st.Member == record {
			switch aset.Place {
			case xform.PlaceSharedKey:
				t.cit.SetSetCurrent(currency.SetCurrent{
					Set: st.Name, OwnerRec: st.Owner, OwnerKey: key,
					MemberRec: record, MemberKey: key,
				})
			case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
				if v, ok := rec.Get(aset.Attr); ok && v.Kind() == abdm.KindInt {
					t.cit.SetSetCurrent(currency.SetCurrent{
						Set: st.Name, OwnerRec: st.Owner, OwnerKey: v.AsInt(),
						MemberRec: record, MemberKey: key,
					})
				}
			case xform.PlaceNone:
				t.cit.SetSetCurrent(currency.SetCurrent{
					Set: st.Name, OwnerRec: netmodel.SystemOwner,
					MemberRec: record, MemberKey: key,
				})
			}
		}
	}
	return key, nil
}
