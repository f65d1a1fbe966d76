package kms

import (
	"context"
	"fmt"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/currency"
	"mlds/internal/netmodel"
	"mlds/internal/xform"
)

// execStore creates a new record occurrence from the UWA template and makes
// it the current of the run-unit (Chapter VI.G). The mapping enforces the
// duplicate condition, the overlap constraints, and automatic set insertion.
func (t *Translator) execStore(ctx context.Context, s *codasyl.Store, out *Outcome) error {
	rec, ok := t.net.Record(s.Record)
	if !ok {
		return fmt.Errorf("kms: STORE names unknown record type %q", s.Record)
	}

	// Resolve the new record's database key and its automatic connections.
	key, autoAttrs, err := t.storeKeyAndAutoSets(s.Record)
	if err != nil {
		return err
	}

	// Duplicate condition: a RETRIEVE per uniqueness group determines
	// whether an equal record already exists.
	if err := t.checkDuplicates(ctx, s.Record, rec); err != nil {
		return err
	}

	// Overlap constraints (functional targets only).
	if err := t.checkOverlap(ctx, s.Record, key); err != nil {
		return err
	}

	// Build the keyword list: FILE, key, scalar items from the UWA, then the
	// set attributes carried by this file.
	kws := abdm.NewRecord(s.Record)
	kws.Set(t.ab.KeyOf(s.Record), abdm.Int(key))
	for _, a := range rec.Attributes {
		if v, ok := t.uwa.Get(s.Record, a.Name); ok {
			kws.Set(a.Name, v)
		} else {
			kws.Set(a.Name, abdm.Null())
		}
	}
	for attr, val := range autoAttrs {
		kws.Set(attr, val)
	}
	// Remaining set attributes of this file start out null (manual sets).
	if tmpl, ok := t.ab.Templates[s.Record]; ok {
		for _, attr := range tmpl {
			if !kws.Has(attr) {
				kws.Set(attr, abdm.Null())
			}
		}
	}
	if _, err := t.kcExec(ctx, abdl.NewInsert(kws)); err != nil {
		return err
	}
	if _, err := t.makeCurrent(s.Record, kws); err != nil {
		return err
	}
	out.Found, out.Record, out.Key = true, s.Record, key
	return nil
}

// storeKeyAndAutoSets resolves a STOREd record's database key and the set
// attributes its automatic memberships require. A record transformed from an
// entity subtype inherits the key of the current owner of each of its ISA
// sets (value inheritance: the subtype record and its supertype record are
// the same entity); any other record receives a fresh key. Native automatic
// sets connect to the current occurrence via the member-side attribute.
func (t *Translator) storeKeyAndAutoSets(record string) (currency.Key, map[string]abdm.Value, error) {
	auto := make(map[string]abdm.Value)
	var key currency.Key
	for _, st := range t.net.Sets {
		if st.Member != record || st.Insertion != netmodel.InsertAutomatic || st.SystemOwned() {
			continue
		}
		sc, ok := t.cit.SetCurrentOf(st.Name)
		if !ok {
			return 0, nil, fmt.Errorf("%w: automatic set %q (set selection is by application: establish the owner first)", ErrNoSetOccurrence, st.Name)
		}
		aset := t.ab.Sets[st.Name]
		switch aset.Place {
		case xform.PlaceSharedKey:
			if key != 0 && key != sc.OwnerKey {
				return 0, nil, fmt.Errorf("kms: STORE %s: ISA owners disagree on the entity key (%d vs %d)", record, key, sc.OwnerKey)
			}
			key = sc.OwnerKey
		case xform.PlaceMemberAttr:
			auto[aset.Attr] = abdm.Int(sc.OwnerKey)
		}
	}
	if key == 0 {
		key = t.kc.NextKey()
	}
	return key, auto, nil
}

// checkDuplicates forms the RETRIEVE requests that enforce DUPLICATES ARE
// NOT ALLOWED. For functional targets the groups come from the schema's
// uniqueness constraints; for native targets the record's no-duplicate items
// form one group. Groups with any uninitialised value are skipped — the
// kernel stores NULL there and NULL never collides.
func (t *Translator) checkDuplicates(ctx context.Context, record string, rec *netmodel.RecordType) error {
	var groups [][]string
	if t.fun != nil {
		for _, u := range t.fun.Uniques {
			if u.Within == record {
				groups = append(groups, u.Functions)
			}
		}
	} else if nd := rec.NoDupAttrs(); len(nd) > 0 {
		groups = append(groups, nd)
	}
	for _, group := range groups {
		conj := abdm.Conjunction{filePred(record)}
		complete := true
		for _, attr := range group {
			v, ok := t.uwa.Get(record, attr)
			if !ok || v.IsNull() {
				complete = false
				break
			}
			conj = append(conj, abdm.Predicate{Attr: attr, Op: abdm.OpEq, Val: v})
		}
		if !complete {
			continue
		}
		res, err := t.kcExec(ctx, abdl.NewRetrieve(abdm.Query{conj}, t.ab.KeyOf(record)))
		if err != nil {
			return err
		}
		if len(res.Records) > 0 {
			return fmt.Errorf("%w: %s values %v already present", ErrDuplicate, record, group)
		}
	}
	return nil
}

// checkOverlap verifies that storing a record of a terminal subtype under an
// entity key does not violate the schema's overlap constraints: functional
// subtypes are disjoint unless an overlap was declared.
func (t *Translator) checkOverlap(ctx context.Context, record string, key currency.Key) error {
	if t.fun == nil {
		return nil
	}
	if _, isSub := t.fun.Subtype(record); !isSub || !t.fun.IsTerminal(record) {
		return nil
	}
	for _, st := range t.fun.Subtypes {
		if st.Name == record || !t.fun.IsTerminal(st.Name) {
			continue
		}
		res, err := t.kcExec(ctx, abdl.NewRetrieve(
			abdm.And(filePred(st.Name), t.keyPred(st.Name, key)),
			t.ab.KeyOf(st.Name),
		))
		if err != nil {
			return err
		}
		if len(res.Records) > 0 && !t.fun.OverlapAllowed(record, st.Name) {
			return fmt.Errorf("%w: entity %d already belongs to subtype %q", ErrOverlap, key, st.Name)
		}
	}
	return nil
}

// execConnect manually inserts the current of the run-unit into the current
// occurrences of the named sets (Chapter VI.D).
func (t *Translator) execConnect(ctx context.Context, c *codasyl.Connect, out *Outcome) error {
	runKey, err := t.requireRunUnit(c.Record)
	if err != nil {
		return err
	}
	for _, set := range c.Sets {
		st, aset, err := t.setInfo(set)
		if err != nil {
			return err
		}
		if st.Insertion == netmodel.InsertAutomatic {
			return fmt.Errorf("%w: set %q", ErrAutomaticSet, set)
		}
		if st.Member != c.Record {
			return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, c.Record, set, st.Member)
		}
		sc, ok := t.cit.SetCurrentOf(set)
		if !ok {
			return fmt.Errorf("%w: set %q", ErrNoSetOccurrence, set)
		}
		switch aset.Place {
		case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
			// The membership information resides in the member record: one
			// UPDATE pointing it at the owner.
			req := abdl.NewUpdate(
				abdm.And(filePred(aset.File), t.keyPred(aset.File, runKey)),
				abdl.Modifier{Attr: aset.Attr, Val: abdm.Int(sc.OwnerKey)},
			)
			if _, err := t.kcExec(ctx, req); err != nil {
				return err
			}
		case xform.PlaceOwnerAttr:
			if err := t.connectOwnerSide(ctx, st, aset, sc.OwnerKey, runKey); err != nil {
				return err
			}
		default:
			return fmt.Errorf("kms: set %q cannot be CONNECTed (placement %v)", set, aset.Place)
		}
		t.updateSetMember(set, st, sc.OwnerKey, runKey)
	}
	t.currentRec = nil
	out.Record, out.Key = c.Record, runKey
	return nil
}

// connectOwnerSide handles the four Chapter VI.D.2.a cases: the membership
// information resides in the owner record. If the owner still has a null
// occurrence of the set attribute the null is replaced; otherwise a new
// record copy is inserted, duplicating the owner's other attribute-value
// pairs.
func (t *Translator) connectOwnerSide(ctx context.Context, st *netmodel.SetType, aset xform.ABSet, ownerKey, runKey currency.Key) error {
	copies, err := t.retrieveByKey(ctx, st.Owner, ownerKey)
	if err != nil {
		return err
	}
	if len(copies) == 0 {
		return fmt.Errorf("kms: owner %s with key %d does not exist", st.Owner, ownerKey)
	}
	hasNull := false
	for _, r := range copies {
		v, ok := r.Get(aset.Attr)
		if ok && v.Kind() == abdm.KindInt && v.AsInt() == runKey {
			return nil // already connected: idempotent
		}
		if !ok || v.IsNull() {
			hasNull = true
		}
	}
	if hasNull {
		// Cases (1) and (2): replace the null value(s) in place.
		req := abdl.NewUpdate(
			abdm.And(
				filePred(st.Owner),
				t.keyPred(st.Owner, ownerKey),
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Null()},
			),
			abdl.Modifier{Attr: aset.Attr, Val: abdm.Int(runKey)},
		)
		_, err := t.kcExec(ctx, req)
		return err
	}
	// Cases (3) and (4): insert a copy of the owner record whose set
	// attribute holds the new member's key.
	cp := copies[0].Clone()
	cp.Set(aset.Attr, abdm.Int(runKey))
	_, err = t.kcExec(ctx, abdl.NewInsert(cp))
	return err
}

// execDisconnect detaches the current of the run-unit from the named sets;
// the record remains in the database (Chapter VI.E).
func (t *Translator) execDisconnect(ctx context.Context, d *codasyl.Disconnect, out *Outcome) error {
	runKey, err := t.requireRunUnit(d.Record)
	if err != nil {
		return err
	}
	for _, set := range d.Sets {
		st, aset, err := t.setInfo(set)
		if err != nil {
			return err
		}
		if st.Insertion == netmodel.InsertAutomatic {
			return fmt.Errorf("%w: set %q", ErrAutomaticSet, set)
		}
		if st.Member != d.Record {
			return fmt.Errorf("%w: %q in set %q (member is %q)", ErrNotMember, d.Record, set, st.Member)
		}
		switch aset.Place {
		case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
			if err := t.disconnectMemberSide(ctx, st, aset, runKey); err != nil {
				return err
			}
		case xform.PlaceOwnerAttr:
			sc, ok := t.cit.SetCurrentOf(set)
			if !ok {
				return fmt.Errorf("%w: set %q", ErrNoSetOccurrence, set)
			}
			if err := t.disconnectOwnerSide(ctx, st, aset, sc.OwnerKey, runKey); err != nil {
				return err
			}
		default:
			return fmt.Errorf("kms: set %q cannot be DISCONNECTed (placement %v)", set, aset.Place)
		}
	}
	t.currentRec = nil
	out.Record, out.Key = d.Record, runKey
	return nil
}

// disconnectMemberSide nulls the member record's set attribute: by the
// schema transformation this is always a singleton function set.
func (t *Translator) disconnectMemberSide(ctx context.Context, st *netmodel.SetType, aset xform.ABSet, runKey currency.Key) error {
	copies, err := t.retrieveByKey(ctx, aset.File, runKey)
	if err != nil {
		return err
	}
	connected := false
	for _, r := range copies {
		if v, ok := r.Get(aset.Attr); ok && !v.IsNull() {
			connected = true
			break
		}
	}
	if !connected {
		return fmt.Errorf("%w: %s key %d in set %q", ErrNotConnected, aset.File, runKey, st.Name)
	}
	req := abdl.NewUpdate(
		abdm.And(filePred(aset.File), t.keyPred(aset.File, runKey)),
		abdl.Modifier{Attr: aset.Attr, Val: abdm.Null()},
	)
	_, err = t.kcExec(ctx, req)
	return err
}

// disconnectOwnerSide handles function sets whose information resides in the
// owner record. A singleton set occurrence has its value nulled out; a set
// with multiple members has the matching record copies deleted.
func (t *Translator) disconnectOwnerSide(ctx context.Context, st *netmodel.SetType, aset xform.ABSet, ownerKey, runKey currency.Key) error {
	copies, err := t.retrieveByKey(ctx, st.Owner, ownerKey)
	if err != nil {
		return err
	}
	matching, others := 0, 0
	for _, r := range copies {
		v, ok := r.Get(aset.Attr)
		switch {
		case ok && v.Kind() == abdm.KindInt && v.AsInt() == runKey:
			matching++
		default:
			others++
		}
	}
	if matching == 0 {
		return fmt.Errorf("%w: %s key %d in set %q", ErrNotConnected, st.Member, runKey, st.Name)
	}
	qual := abdm.And(
		filePred(st.Owner),
		t.keyPred(st.Owner, ownerKey),
		abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Int(runKey)},
	)
	if others > 0 {
		// The function set has multiple members: delete the matching copies.
		_, err := t.kcExec(ctx, abdl.NewDelete(qual))
		return err
	}
	// Singleton: null out the value, keeping the record.
	_, err = t.kcExec(ctx, abdl.NewUpdate(qual, abdl.Modifier{Attr: aset.Attr, Val: abdm.Null()}))
	return err
}

// execModify alters the current record of the run-unit: the whole record or
// selected items (Chapter VI.F). One UPDATE is issued per modified field.
func (t *Translator) execModify(ctx context.Context, m *codasyl.Modify, out *Outcome) error {
	runKey, err := t.requireRunUnit(m.Record)
	if err != nil {
		return err
	}
	rec, _ := t.net.Record(m.Record)
	items := m.Items
	if len(items) == 0 {
		// Whole-record MODIFY: every item with a UWA value.
		for _, a := range rec.Attributes {
			if _, ok := t.uwa.Get(m.Record, a.Name); ok {
				items = append(items, a.Name)
			}
		}
		if len(items) == 0 {
			return fmt.Errorf("kms: MODIFY %s: no UWA fields initialised", m.Record)
		}
	}
	for _, item := range items {
		if _, ok := rec.Attribute(item); !ok {
			return fmt.Errorf("kms: MODIFY names unknown item %q of %q", item, m.Record)
		}
		v, ok := t.uwa.Get(m.Record, item)
		if !ok {
			return fmt.Errorf("kms: UWA field %s IN %s not initialised (use MOVE)", item, m.Record)
		}
		req := abdl.NewUpdate(
			abdm.And(filePred(m.Record), t.keyPred(m.Record, runKey)),
			abdl.Modifier{Attr: item, Val: v},
		)
		if _, err := t.kcExec(ctx, req); err != nil {
			return err
		}
	}
	t.currentRec = nil
	out.Record, out.Key = m.Record, runKey
	return nil
}

// execErase deletes the current of the run-unit (Chapter VI.H), enforcing
// both the CODASYL constraint (the record may not own a non-empty set
// occurrence) and the Daplex constraint (the entity may not be referenced by
// a database function).
func (t *Translator) execErase(ctx context.Context, e *codasyl.Erase, out *Outcome) error {
	if e.All {
		return ErrEraseAll
	}
	runKey, err := t.requireRunUnit(e.Record)
	if err != nil {
		return err
	}
	// CODASYL constraint: sets owned by this record type must have no
	// members connected to this occurrence.
	for _, st := range t.net.Sets {
		if st.Owner != e.Record {
			continue
		}
		aset := t.ab.Sets[st.Name]
		var q abdm.Query
		var targetFile string
		switch aset.Place {
		case xform.PlaceSharedKey:
			targetFile = st.Member
			q = abdm.And(filePred(st.Member), t.keyPred(st.Member, runKey))
		case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
			targetFile = aset.File
			q = abdm.And(filePred(aset.File),
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Int(runKey)})
		case xform.PlaceOwnerAttr:
			targetFile = st.Owner
			q = abdm.And(filePred(st.Owner), t.keyPred(st.Owner, runKey),
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpNe, Val: abdm.Null()})
		default:
			continue
		}
		res, err := t.kcExec(ctx, abdl.NewRetrieve(q, t.ab.KeyOf(targetFile)))
		if err != nil {
			return err
		}
		if len(res.Records) > 0 {
			return fmt.Errorf("%w: set %q has %d connected member record(s)", ErrEraseOwner, st.Name, len(res.Records))
		}
	}
	// Daplex constraint: the entity may not be referenced by a function —
	// i.e. appear as the stored member key of an owner-side function set.
	for _, st := range t.net.Sets {
		if st.Member != e.Record {
			continue
		}
		aset := t.ab.Sets[st.Name]
		if aset.Place != xform.PlaceOwnerAttr {
			continue
		}
		res, err := t.kcExec(ctx, abdl.NewRetrieve(
			abdm.And(filePred(st.Owner),
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Int(runKey)}),
			t.ab.KeyOf(st.Owner),
		))
		if err != nil {
			return err
		}
		if len(res.Records) > 0 {
			return fmt.Errorf("%w: function %q references it", ErrEraseReferenced, st.Name)
		}
	}
	if _, err := t.kcExec(ctx, abdl.NewDelete(abdm.And(filePred(e.Record), t.keyPred(e.Record, runKey)))); err != nil {
		return err
	}
	t.cit.InvalidateCurrent(e.Record, runKey)
	t.currentRec = nil
	out.Record, out.Key = e.Record, runKey
	return nil
}

// requireRunUnit checks that the current of the run-unit exists and is of
// the expected record type, returning its key.
func (t *Translator) requireRunUnit(record string) (currency.Key, error) {
	if !t.cit.RunUnit.Valid {
		return 0, ErrNoCurrentRunUnit
	}
	if t.cit.RunUnit.Record != record {
		return 0, fmt.Errorf("kms: current of run-unit is a %s record, not %s", t.cit.RunUnit.Record, record)
	}
	return t.cit.RunUnit.Key, nil
}
