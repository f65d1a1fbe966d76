package dapkms

import (
	"context"
	"fmt"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/currency"
	"mlds/internal/daplex"
	"mlds/internal/funcmodel"
	"mlds/internal/xform"
)

// include adds members to a multi-valued function over the matching
// entities: entity targets for entity-valued functions (one-to-many or
// many-to-many), a scalar literal for scalar multi-valued functions.
func (i *Interface) include(ctx context.Context, st *daplex.Include) error {
	owners, fn, aset, err := i.resolveMV(ctx, st.Type, st.Func, st.Where)
	if err != nil {
		return err
	}
	if fn.Result.IsEntity() == st.HasScalar {
		return fmt.Errorf("dapkms: INCLUDE target does not match function %q's range", st.Func)
	}
	var targets []currency.Key
	var scalar abdm.Value
	if st.HasScalar {
		want, _ := i.ab.Dir.AttrKind(st.Func)
		scalar, err = coerce(st.ScalarVal, want)
		if err != nil {
			return fmt.Errorf("dapkms: %q: %w", st.Func, err)
		}
	} else {
		if st.TargetType != fn.Result.Entity {
			// Subtypes of the range are also acceptable targets.
			okSub := false
			for _, anc := range i.fun.AncestorChain(st.TargetType) {
				if anc == fn.Result.Entity {
					okSub = true
				}
			}
			if !okSub {
				return fmt.Errorf("dapkms: function %q ranges over %q, not %q", st.Func, fn.Result.Entity, st.TargetType)
			}
		}
		targets, err = i.resolveWhere(ctx, st.TargetType, st.TargetWhere)
		if err != nil {
			return err
		}
		if len(targets) == 0 {
			return fmt.Errorf("dapkms: INCLUDE matched no target entities")
		}
	}

	for _, owner := range owners {
		switch aset.Place {
		case xform.PlaceOwnerAttr:
			vals := targetValues(targets, scalar, st.HasScalar)
			for _, v := range vals {
				if err := i.includeOwnerSide(ctx, aset, owner, v); err != nil {
					return err
				}
			}
		case xform.PlaceLinkAttr:
			si, _ := i.mapping.SetFor(st.Func)
			for _, tgt := range targets {
				link := abdm.NewRecord(si.LinkRecord)
				link.Set(i.ab.KeyOf(si.LinkRecord), abdm.Int(i.kc.NextKey()))
				link.Set(st.Func, abdm.Int(owner))
				link.Set(si.PairSet, abdm.Int(tgt))
				if _, err := i.kc.ExecCtx(ctx, abdl.NewInsert(link)); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("dapkms: function %q is not multi-valued over its owner", st.Func)
		}
	}
	return nil
}

// exclude removes members from a multi-valued function.
func (i *Interface) exclude(ctx context.Context, st *daplex.Exclude) error {
	owners, fn, aset, err := i.resolveMV(ctx, st.Type, st.Func, st.Where)
	if err != nil {
		return err
	}
	if fn.Result.IsEntity() == st.HasScalar {
		return fmt.Errorf("dapkms: EXCLUDE target does not match function %q's range", st.Func)
	}
	var targets []currency.Key
	var scalar abdm.Value
	if st.HasScalar {
		want, _ := i.ab.Dir.AttrKind(st.Func)
		scalar, err = coerce(st.ScalarVal, want)
		if err != nil {
			return fmt.Errorf("dapkms: %q: %w", st.Func, err)
		}
	} else {
		targets, err = i.resolveWhere(ctx, st.TargetType, st.TargetWhere)
		if err != nil {
			return err
		}
	}
	for _, owner := range owners {
		switch aset.Place {
		case xform.PlaceOwnerAttr:
			for _, v := range targetValues(targets, scalar, st.HasScalar) {
				if err := i.excludeOwnerSide(ctx, aset, owner, v); err != nil {
					return err
				}
			}
		case xform.PlaceLinkAttr:
			si, _ := i.mapping.SetFor(st.Func)
			for _, tgt := range targets {
				q := abdm.And(
					filePredOf(si.LinkRecord),
					abdm.Predicate{Attr: st.Func, Op: abdm.OpEq, Val: abdm.Int(owner)},
					abdm.Predicate{Attr: si.PairSet, Op: abdm.OpEq, Val: abdm.Int(tgt)},
				)
				if _, err := i.kc.ExecCtx(ctx, abdl.NewDelete(q)); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("dapkms: function %q is not multi-valued over its owner", st.Func)
		}
	}
	return nil
}

// resolveMV resolves a multi-valued function, its kernel placement, and the
// owner keys selected by the WHERE clause.
func (i *Interface) resolveMV(ctx context.Context, typeName, fnName string, where []daplex.Cond) ([]currency.Key, *funcmodel.Function, xform.ABSet, error) {
	home, fn, err := i.homeOf(typeName, fnName)
	if err != nil {
		return nil, nil, xform.ABSet{}, err
	}
	_ = home
	if !fn.SetValued {
		return nil, nil, xform.ABSet{}, fmt.Errorf("dapkms: function %q is single-valued; use LET", fnName)
	}
	aset, ok := i.ab.Sets[fnName]
	if !ok && fn.Result.IsEntity() {
		return nil, nil, xform.ABSet{}, fmt.Errorf("dapkms: function %q has no kernel set", fnName)
	}
	if !fn.Result.IsEntity() {
		// Scalar multi-valued: the attribute lives in the home file, owner
		// side, without a set entry.
		aset = xform.ABSet{Place: xform.PlaceOwnerAttr, File: home, Attr: fnName}
	}
	owners, err := i.resolveWhere(ctx, typeName, where)
	if err != nil {
		return nil, nil, xform.ABSet{}, err
	}
	if len(owners) == 0 {
		return nil, nil, xform.ABSet{}, fmt.Errorf("dapkms: no %q entities match the WHERE clause", typeName)
	}
	return owners, fn, aset, nil
}

// includeOwnerSide fills a NULL occurrence of the attribute or inserts a
// record copy — the Chapter VI.D.2.a cases, shared with the CODASYL CONNECT
// translation's semantics.
func (i *Interface) includeOwnerSide(ctx context.Context, aset xform.ABSet, owner currency.Key, val abdm.Value) error {
	copies, err := i.copiesOf(ctx, aset.File, owner)
	if err != nil {
		return err
	}
	if len(copies) == 0 {
		return fmt.Errorf("dapkms: owner %d has no %s record", owner, aset.File)
	}
	hasNull := false
	for _, r := range copies {
		v, ok := r.Get(aset.Attr)
		if ok && v.Equal(val) {
			return nil // already included
		}
		if !ok || v.IsNull() {
			hasNull = true
		}
	}
	keyAttr := i.ab.KeyOf(aset.File)
	if hasNull {
		req := abdl.NewUpdate(
			abdm.And(
				filePredOf(aset.File),
				abdm.Predicate{Attr: keyAttr, Op: abdm.OpEq, Val: abdm.Int(owner)},
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Null()},
			),
			abdl.Modifier{Attr: aset.Attr, Val: val},
		)
		_, err := i.kc.ExecCtx(ctx, req)
		return err
	}
	cp := copies[0].Clone()
	cp.Set(aset.Attr, val)
	_, err = i.kc.ExecCtx(ctx, abdl.NewInsert(cp))
	return err
}

// excludeOwnerSide nulls a singleton occurrence or deletes matching copies.
func (i *Interface) excludeOwnerSide(ctx context.Context, aset xform.ABSet, owner currency.Key, val abdm.Value) error {
	copies, err := i.copiesOf(ctx, aset.File, owner)
	if err != nil {
		return err
	}
	matching, others := 0, 0
	for _, r := range copies {
		if v, ok := r.Get(aset.Attr); ok && v.Equal(val) {
			matching++
		} else {
			others++
		}
	}
	if matching == 0 {
		return fmt.Errorf("dapkms: value %s not in %s of owner %d", val, aset.Attr, owner)
	}
	keyAttr := i.ab.KeyOf(aset.File)
	qual := abdm.And(
		filePredOf(aset.File),
		abdm.Predicate{Attr: keyAttr, Op: abdm.OpEq, Val: abdm.Int(owner)},
		abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: val},
	)
	if others > 0 {
		_, err := i.kc.ExecCtx(ctx, abdl.NewDelete(qual))
		return err
	}
	_, err = i.kc.ExecCtx(ctx, abdl.NewUpdate(qual, abdl.Modifier{Attr: aset.Attr, Val: abdm.Null()}))
	return err
}

// copiesOf fetches every kernel record copy of the entity in the file.
func (i *Interface) copiesOf(ctx context.Context, file string, key currency.Key) ([]*abdm.Record, error) {
	res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(abdm.And(
		filePredOf(file),
		abdm.Predicate{Attr: i.ab.KeyOf(file), Op: abdm.OpEq, Val: abdm.Int(key)},
	), abdl.AllAttrs))
	if err != nil {
		return nil, err
	}
	out := make([]*abdm.Record, len(res.Records))
	for n, sr := range res.Records {
		out[n] = sr.Rec
	}
	return out, nil
}

// targetValues folds the entity keys or the scalar literal into values.
func targetValues(targets []currency.Key, scalar abdm.Value, hasScalar bool) []abdm.Value {
	if hasScalar {
		return []abdm.Value{scalar}
	}
	out := make([]abdm.Value, len(targets))
	for n, k := range targets {
		out[n] = abdm.Int(k)
	}
	return out
}
