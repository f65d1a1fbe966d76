package kms

import (
	"context"
	"fmt"

	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/currency"
	"mlds/internal/netmodel"
	"mlds/internal/xform"
)

// execFind dispatches the FIND variants (Chapter VI.B).
func (t *Translator) execFind(ctx context.Context, f *codasyl.Find, out *Outcome) error {
	switch f.Kind {
	case codasyl.FindAny:
		return t.findAny(ctx, f, out)
	case codasyl.FindCurrent:
		return t.findCurrent(f, out)
	case codasyl.FindDuplicate:
		return t.findDuplicate(f, out)
	case codasyl.FindFirst, codasyl.FindLast, codasyl.FindNext, codasyl.FindPrior:
		return t.findPositional(ctx, f, out)
	case codasyl.FindOwner:
		return t.findOwner(ctx, f, out)
	case codasyl.FindWithinCurrent:
		return t.findWithinCurrent(ctx, f, out)
	default:
		return fmt.Errorf("kms: unsupported FIND variant %v", f.Kind)
	}
}

// findAny locates a record whose values for the listed items equal the
// record template in the UWA, translating to a single RETRIEVE whose first
// predicate is (FILE = record_type).
func (t *Translator) findAny(ctx context.Context, f *codasyl.Find, out *Outcome) error {
	rec, ok := t.net.Record(f.Record)
	if !ok {
		return fmt.Errorf("kms: FIND ANY names unknown record type %q", f.Record)
	}
	conj := abdm.Conjunction{filePred(f.Record)}
	for _, item := range f.Items {
		if _, ok := rec.Attribute(item); !ok {
			return fmt.Errorf("kms: FIND ANY names unknown item %q of %q", item, f.Record)
		}
		v, ok := t.uwa.Get(f.Record, item)
		if !ok {
			return fmt.Errorf("kms: UWA field %s IN %s not initialised (use MOVE)", item, f.Record)
		}
		conj = append(conj, abdm.Predicate{Attr: item, Op: abdm.OpEq, Val: v})
	}
	recs, err := t.retrieveAll(ctx, abdm.Query{conj})
	if err != nil {
		return err
	}
	recs = t.dedupeByKey(f.Record, recs)
	buf := currency.NewBuffer(recs)
	t.cit.PutBuffer("", buf)
	r, ok := buf.First()
	if !ok {
		out.EndOfSet = true
		out.Record = f.Record
		return nil
	}
	key, err := t.makeCurrent(f.Record, r)
	if err != nil {
		return err
	}
	out.Found, out.Record, out.Key = true, f.Record, key
	return nil
}

// findCurrent updates the current of the run-unit from the current record of
// a set type. Its only function is the CIT update: no ABDL is generated.
func (t *Translator) findCurrent(f *codasyl.Find, out *Outcome) error {
	st, _, err := t.setInfo(f.Set)
	if err != nil {
		return err
	}
	if st.Member != f.Record {
		return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, f.Record, f.Set, st.Member)
	}
	sc, ok := t.cit.SetCurrentOf(f.Set)
	if !ok || sc.MemberKey == 0 {
		return fmt.Errorf("%w: set %q has no current record", ErrNoSetOccurrence, f.Set)
	}
	t.cit.SetRunUnit(f.Record, sc.MemberKey)
	t.currentRec = nil // fetched lazily by GET
	out.Found, out.Record, out.Key = true, f.Record, sc.MemberKey
	return nil
}

// findPositional implements FIND FIRST/LAST/NEXT/PRIOR record WITHIN set.
// FIRST and LAST (re)retrieve the set occurrence into the result buffer;
// NEXT and PRIOR walk the buffer established earlier.
func (t *Translator) findPositional(ctx context.Context, f *codasyl.Find, out *Outcome) error {
	st, aset, err := t.setInfo(f.Set)
	if err != nil {
		return err
	}
	if st.Member != f.Record {
		return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, f.Record, f.Set, st.Member)
	}
	ownerKey, err := t.requireOwner(st, aset)
	if err != nil {
		return err
	}
	var buf *currency.Buffer
	switch f.Kind {
	case codasyl.FindFirst, codasyl.FindLast:
		recs, err := t.members(ctx, st, aset, ownerKey)
		if err != nil {
			return err
		}
		buf = currency.NewBuffer(recs)
		t.cit.PutBuffer(f.Set, buf)
	default:
		var ok bool
		buf, ok = t.cit.BufferOf(f.Set)
		if !ok {
			return fmt.Errorf("%w: set %q", ErrNoBuffer, f.Set)
		}
	}
	var r *abdm.Record
	var ok bool
	switch f.Kind {
	case codasyl.FindFirst:
		r, ok = buf.First()
	case codasyl.FindLast:
		r, ok = buf.Last()
	case codasyl.FindNext:
		r, ok = buf.Next()
	case codasyl.FindPrior:
		r, ok = buf.Prior()
	}
	if !ok {
		out.EndOfSet = true
		out.Record = f.Record
		return nil
	}
	key, err := t.makeCurrent(f.Record, r)
	if err != nil {
		return err
	}
	t.updateSetMember(f.Set, st, ownerKey, key)
	out.Found, out.Record, out.Key = true, f.Record, key
	return nil
}

// requireOwner resolves the owner key of the set's current occurrence.
// SYSTEM-owned sets have a single occurrence and need no currency.
func (t *Translator) requireOwner(st *netmodel.SetType, aset xform.ABSet) (currency.Key, error) {
	if aset.Place == xform.PlaceNone {
		return 0, nil
	}
	sc, ok := t.cit.SetCurrentOf(st.Name)
	if !ok {
		return 0, fmt.Errorf("%w: set %q", ErrNoSetOccurrence, st.Name)
	}
	return sc.OwnerKey, nil
}

// updateSetMember records the new current member of a set occurrence.
func (t *Translator) updateSetMember(set string, st *netmodel.SetType, ownerKey, memberKey currency.Key) {
	t.cit.SetSetCurrent(currency.SetCurrent{
		Set: set, OwnerRec: st.Owner, OwnerKey: ownerKey,
		MemberRec: st.Member, MemberKey: memberKey,
	})
}

// findDuplicate sequentially accesses records within the current set
// occurrence, locating the next buffered record whose values for the listed
// items match those of the current record of the set.
func (t *Translator) findDuplicate(f *codasyl.Find, out *Outcome) error {
	st, _, err := t.setInfo(f.Set)
	if err != nil {
		return err
	}
	if st.Member != f.Record {
		return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, f.Record, f.Set, st.Member)
	}
	buf, ok := t.cit.BufferOf(f.Set)
	if !ok {
		return fmt.Errorf("%w: set %q", ErrNoBuffer, f.Set)
	}
	cur, ok := buf.Current()
	if !ok {
		return fmt.Errorf("%w: set %q has no current record", ErrNoSetOccurrence, f.Set)
	}
	want := make(map[string]abdm.Value, len(f.Items))
	for _, item := range f.Items {
		v, ok := cur.Get(item)
		if !ok {
			return fmt.Errorf("kms: FIND DUPLICATE item %q absent from current record", item)
		}
		want[item] = v
	}
	for {
		r, ok := buf.Next()
		if !ok {
			out.EndOfSet = true
			out.Record = f.Record
			return nil
		}
		match := true
		for item, v := range want {
			got, ok := r.Get(item)
			if !ok || !got.Equal(v) {
				match = false
				break
			}
		}
		if match {
			key, err := t.makeCurrent(f.Record, r)
			if err != nil {
				return err
			}
			sc, _ := t.cit.SetCurrentOf(f.Set)
			t.updateSetMember(f.Set, st, sc.OwnerKey, key)
			out.Found, out.Record, out.Key = true, f.Record, key
			return nil
		}
	}
}

// findOwner identifies the owner of the current occurrence of the set: all
// the needed information is present in the CIT, so a single RETRIEVE by the
// owner's key suffices.
func (t *Translator) findOwner(ctx context.Context, f *codasyl.Find, out *Outcome) error {
	st, aset, err := t.setInfo(f.Set)
	if err != nil {
		return err
	}
	if aset.Place == xform.PlaceNone {
		return fmt.Errorf("kms: FIND OWNER WITHIN %q: SYSTEM owns the set", f.Set)
	}
	sc, ok := t.cit.SetCurrentOf(f.Set)
	if !ok {
		return fmt.Errorf("%w: set %q", ErrNoSetOccurrence, f.Set)
	}
	recs, err := t.retrieveByKey(ctx, st.Owner, sc.OwnerKey)
	if err != nil {
		return err
	}
	recs = t.dedupeByKey(st.Owner, recs)
	if len(recs) == 0 {
		out.EndOfSet = true
		out.Record = st.Owner
		return nil
	}
	key, err := t.makeCurrent(st.Owner, recs[0])
	if err != nil {
		return err
	}
	out.Found, out.Record, out.Key = true, st.Owner, key
	return nil
}

// findWithinCurrent locates a member of the current set occurrence whose
// values match the UWA template for the listed items — FIND DUPLICATE's
// shape, but matching against user-supplied values.
func (t *Translator) findWithinCurrent(ctx context.Context, f *codasyl.Find, out *Outcome) error {
	st, aset, err := t.setInfo(f.Set)
	if err != nil {
		return err
	}
	if st.Member != f.Record {
		return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, f.Record, f.Set, st.Member)
	}
	ownerKey, err := t.requireOwner(st, aset)
	if err != nil {
		return err
	}
	recs, err := t.members(ctx, st, aset, ownerKey)
	if err != nil {
		return err
	}
	// Filter by the UWA values.
	var match []*abdm.Record
	for _, r := range recs {
		ok := true
		for _, item := range f.Items {
			want, has := t.uwa.Get(f.Record, item)
			if !has {
				return fmt.Errorf("kms: UWA field %s IN %s not initialised (use MOVE)", item, f.Record)
			}
			got, present := r.Get(item)
			if !present || !got.Equal(want) {
				ok = false
				break
			}
		}
		if ok {
			match = append(match, r)
		}
	}
	buf := currency.NewBuffer(match)
	t.cit.PutBuffer(f.Set, buf)
	r, ok := buf.First()
	if !ok {
		out.EndOfSet = true
		out.Record = f.Record
		return nil
	}
	key, err := t.makeCurrent(f.Record, r)
	if err != nil {
		return err
	}
	t.updateSetMember(f.Set, st, ownerKey, key)
	out.Found, out.Record, out.Key = true, f.Record, key
	return nil
}

// execGet implements the three GET forms (Chapter VI.C): the current record
// of the run-unit (or selected items of it) moves into the UWA.
func (t *Translator) execGet(ctx context.Context, g *codasyl.Get, out *Outcome) error {
	if !t.cit.RunUnit.Valid {
		return ErrNoCurrentRunUnit
	}
	record := t.cit.RunUnit.Record
	if g.Record != "" && g.Record != record {
		return fmt.Errorf("kms: GET %s: current of run-unit is a %s record", g.Record, record)
	}
	rec := t.currentRec
	if rec == nil {
		recs, err := t.retrieveByKey(ctx, record, t.cit.RunUnit.Key)
		if err != nil {
			return err
		}
		recs = t.dedupeByKey(record, recs)
		if len(recs) == 0 {
			return fmt.Errorf("kms: current of run-unit (%s key %d) no longer exists", record, t.cit.RunUnit.Key)
		}
		rec = recs[0]
		t.currentRec = rec
	}
	out.Record = record
	out.Values = make(map[string]abdm.Value)
	if len(g.Items) == 0 {
		t.uwa.LoadRecord(record, rec)
		for _, kw := range rec.Keywords {
			if kw.Attr != abdm.FileAttr {
				out.Values[kw.Attr] = kw.Val
			}
		}
		return nil
	}
	for _, item := range g.Items {
		v, ok := rec.Get(item)
		if !ok {
			return fmt.Errorf("kms: GET names unknown item %q of %q", item, record)
		}
		t.uwa.Set(record, item, v)
		out.Values[item] = v
	}
	return nil
}
