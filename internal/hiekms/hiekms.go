// Package hiekms implements the kernel mapping system of the DL/I
// hierarchical language interface: the hierarchical→ABDM transformation (a
// file per segment type, a parent-key attribute linking each occurrence to
// its parent) and the execution of DL/I calls — GU/GN/GNP navigation in
// hierarchic (preorder) order, ISRT, REPL and DLET — against the kernel.
package hiekms

import (
	"context"
	"fmt"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/currency"
	"mlds/internal/dli"
	"mlds/internal/hiemodel"
	"mlds/internal/kc"
)

// DeriveAB maps a hierarchical schema onto a kernel directory: a file per
// segment, whose template is the segment's key attribute (named after the
// segment), its parent's key attribute for non-roots, then its fields.
func DeriveAB(s *hiemodel.Schema) (*abdm.Directory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dir := abdm.NewDirectory()
	for _, seg := range s.Segments {
		if err := dir.DefineAttr(seg.Name, abdm.KindInt); err != nil {
			return nil, fmt.Errorf("hiekms: segment key %q: %w", seg.Name, err)
		}
	}
	for _, seg := range s.Segments {
		tmpl := []string{seg.Name}
		if seg.Parent != "" {
			tmpl = append(tmpl, seg.Parent)
		}
		for _, f := range seg.Fields {
			var kind abdm.Kind
			switch f.Type {
			case hiemodel.FieldInt:
				kind = abdm.KindInt
			case hiemodel.FieldFloat:
				kind = abdm.KindFloat
			default:
				kind = abdm.KindString
			}
			if err := dir.DefineAttr(f.Name, kind); err != nil {
				return nil, fmt.Errorf("hiekms: segment %q field %q: %w", seg.Name, f.Name, err)
			}
			tmpl = append(tmpl, f.Name)
		}
		if err := dir.DefineFile(seg.Name, tmpl); err != nil {
			return nil, err
		}
	}
	return dir, nil
}

// Status values of a DL/I call, following IMS conventions: "" is success,
// GE means the search argument was not satisfied, GB means end of database.
const (
	StatusOK = ""
	StatusGE = "GE"
	StatusGB = "GB"
)

// Outcome reports one executed DL/I call.
type Outcome struct {
	Status  string
	Segment string
	Key     currency.Key
	Values  map[string]abdm.Value
}

// position identifies one segment occurrence.
type position struct {
	Seg   string
	Key   currency.Key
	Valid bool
}

// Interface is one user's DL/I session.
type Interface struct {
	schema *hiemodel.Schema
	kc     *kc.Controller

	pos    position // current position (last GU/GN/GNP/ISRT target)
	anchor position // parentage for GNP, set by GU/GN
}

// New builds a DL/I interface over a hierarchical database.
func New(s *hiemodel.Schema, ctrl *kc.Controller) *Interface {
	return &Interface{schema: s, kc: ctrl}
}

// ExecCtx executes one parsed call under the request context: every kernel
// request it issues carries ctx, so the controller joins the context's
// transaction and attaches its trace spans beneath the caller's.
func (i *Interface) ExecCtx(ctx context.Context, call dli.Call) (*Outcome, error) {
	switch v := call.(type) {
	case *dli.GU:
		return i.execGU(ctx, v)
	case *dli.GN:
		return i.execGN(ctx, v)
	case *dli.GNP:
		return i.execGNP(ctx, v)
	case *dli.ISRT:
		return i.execISRT(ctx, v)
	case *dli.REPL:
		return i.execREPL(ctx, v)
	case *dli.DLET:
		return i.execDLET(ctx)
	default:
		return nil, fmt.Errorf("hiekms: unsupported call %T", call)
	}
}

// --- kernel access helpers ---------------------------------------------------

func filePred(seg string) abdm.Predicate {
	return abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(seg)}
}

// occurrences retrieves segment occurrences, optionally qualified and
// optionally restricted to one parent, ordered by key.
func (i *Interface) occurrences(ctx context.Context, seg *hiemodel.Segment, conds []dli.Cond, parent *currency.Key) ([]*abdm.Record, error) {
	conj := abdm.Conjunction{filePred(seg.Name)}
	if parent != nil {
		conj = append(conj, abdm.Predicate{Attr: seg.Parent, Op: abdm.OpEq, Val: abdm.Int(*parent)})
	}
	for _, c := range conds {
		f, ok := seg.Field(c.Field)
		if !ok {
			return nil, fmt.Errorf("hiekms: segment %q has no field %q", seg.Name, c.Field)
		}
		_ = f
		conj = append(conj, abdm.Predicate{Attr: c.Field, Op: c.Op, Val: c.Val})
	}
	res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(abdm.Query{conj}, abdl.AllAttrs))
	if err != nil {
		return nil, err
	}
	// Order by segment key.
	recs := make([]*abdm.Record, 0, len(res.Records))
	for _, sr := range res.Records {
		recs = append(recs, sr.Rec)
	}
	sortByKey(recs, seg.Name)
	return recs, nil
}

func sortByKey(recs []*abdm.Record, keyAttr string) {
	for a := 1; a < len(recs); a++ {
		for b := a; b > 0; b-- {
			ka, _ := recs[b-1].Get(keyAttr)
			kb, _ := recs[b].Get(keyAttr)
			if ka.AsInt() <= kb.AsInt() {
				break
			}
			recs[b-1], recs[b] = recs[b], recs[b-1]
		}
	}
}

func keyOf(rec *abdm.Record, seg string) currency.Key {
	v, _ := rec.Get(seg)
	return v.AsInt()
}

// fetch retrieves one occurrence by position.
func (i *Interface) fetch(ctx context.Context, p position) (*abdm.Record, error) {
	seg, ok := i.schema.Segment(p.Seg)
	if !ok {
		return nil, fmt.Errorf("hiekms: unknown segment %q", p.Seg)
	}
	conj := abdm.Conjunction{filePred(seg.Name),
		{Attr: seg.Name, Op: abdm.OpEq, Val: abdm.Int(p.Key)}}
	res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(abdm.Query{conj}, abdl.AllAttrs))
	if err != nil {
		return nil, err
	}
	if len(res.Records) == 0 {
		return nil, fmt.Errorf("hiekms: position %s#%d vanished", p.Seg, p.Key)
	}
	return res.Records[0].Rec, nil
}

// children lists a position's child occurrences: child segment types in
// declaration order, occurrences key-ascending within each type.
func (i *Interface) children(ctx context.Context, p position) ([]position, error) {
	var out []position
	for _, child := range i.schema.Children(p.Seg) {
		recs, err := i.occurrences(ctx, child, nil, &p.Key)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			out = append(out, position{Seg: child.Name, Key: keyOf(r, child.Name), Valid: true})
		}
	}
	return out, nil
}

// rootList lists the root occurrences in hierarchic order.
func (i *Interface) rootList(ctx context.Context) ([]position, error) {
	var out []position
	for _, root := range i.schema.Roots() {
		recs, err := i.occurrences(ctx, root, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			out = append(out, position{Seg: root.Name, Key: keyOf(r, root.Name), Valid: true})
		}
	}
	return out, nil
}

// parentOf resolves a position's parent occurrence.
func (i *Interface) parentOf(ctx context.Context, p position) (position, error) {
	seg, _ := i.schema.Segment(p.Seg)
	if seg == nil || seg.Parent == "" {
		return position{}, nil
	}
	rec, err := i.fetch(ctx, p)
	if err != nil {
		return position{}, err
	}
	v, ok := rec.Get(seg.Parent)
	if !ok || v.IsNull() {
		return position{}, nil
	}
	return position{Seg: seg.Parent, Key: v.AsInt(), Valid: true}, nil
}

// nextPreorder advances one step in hierarchic order.
func (i *Interface) nextPreorder(ctx context.Context, cur position) (position, error) {
	// Descend first.
	kids, err := i.children(ctx, cur)
	if err != nil {
		return position{}, err
	}
	if len(kids) > 0 {
		return kids[0], nil
	}
	// Otherwise the next sibling, ascending as needed.
	for cur.Valid {
		parent, err := i.parentOf(ctx, cur)
		if err != nil {
			return position{}, err
		}
		var sibs []position
		if parent.Valid {
			sibs, err = i.children(ctx, parent)
		} else {
			sibs, err = i.rootList(ctx)
		}
		if err != nil {
			return position{}, err
		}
		for n, s := range sibs {
			if s.Seg == cur.Seg && s.Key == cur.Key {
				if n+1 < len(sibs) {
					return sibs[n+1], nil
				}
				break
			}
		}
		cur = parent
	}
	return position{}, nil // end of database
}

// within reports whether p lies in the subtree rooted at anchor.
func (i *Interface) within(ctx context.Context, p, anchor position) (bool, error) {
	for p.Valid {
		if p.Seg == anchor.Seg && p.Key == anchor.Key {
			return true, nil
		}
		var err error
		p, err = i.parentOf(ctx, p)
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// outcomeFor builds a successful outcome from a position.
func (i *Interface) outcomeFor(ctx context.Context, p position) (*Outcome, error) {
	rec, err := i.fetch(ctx, p)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Status: StatusOK, Segment: p.Seg, Key: p.Key, Values: map[string]abdm.Value{}}
	seg, _ := i.schema.Segment(p.Seg)
	for _, f := range seg.Fields {
		if v, ok := rec.Get(f.Name); ok {
			out.Values[f.Name] = v
		}
	}
	return out, nil
}

// --- the calls -----------------------------------------------------------------

// execGU resolves the SSA path level by level: each SSA's candidates are
// qualified occurrences whose parent is the chosen occurrence of the
// previous SSA. Consecutive SSAs must be parent and child segment types.
func (i *Interface) execGU(ctx context.Context, gu *dli.GU) (*Outcome, error) {
	var found position
	var search func(level int, parent *currency.Key) (bool, error)
	search = func(level int, parent *currency.Key) (bool, error) {
		ssa := gu.Path[level]
		seg, ok := i.schema.Segment(ssa.Segment)
		if !ok {
			return false, fmt.Errorf("hiekms: unknown segment %q", ssa.Segment)
		}
		if level > 0 && seg.Parent != gu.Path[level-1].Segment {
			return false, fmt.Errorf("hiekms: %q is not a child segment of %q", ssa.Segment, gu.Path[level-1].Segment)
		}
		recs, err := i.occurrences(ctx, seg, ssa.Conds, parent)
		if err != nil {
			return false, err
		}
		for _, r := range recs {
			key := keyOf(r, seg.Name)
			if level == len(gu.Path)-1 {
				found = position{Seg: seg.Name, Key: key, Valid: true}
				return true, nil
			}
			ok, err := search(level+1, &key)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	ok, err := search(0, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return &Outcome{Status: StatusGE}, nil
	}
	i.pos = found
	i.anchor = found
	return i.outcomeFor(ctx, found)
}

// execGN advances in hierarchic order; with a segment filter it skips until
// a matching occurrence.
func (i *Interface) execGN(ctx context.Context, gn *dli.GN) (*Outcome, error) {
	cur := i.pos
	for {
		var next position
		var err error
		if !cur.Valid {
			roots, rerr := i.rootList(ctx)
			if rerr != nil {
				return nil, rerr
			}
			if len(roots) == 0 {
				return &Outcome{Status: StatusGB}, nil
			}
			next = roots[0]
		} else {
			next, err = i.nextPreorder(ctx, cur)
			if err != nil {
				return nil, err
			}
			if !next.Valid {
				return &Outcome{Status: StatusGB}, nil
			}
		}
		if gn.Segment == "" || next.Seg == gn.Segment {
			i.pos = next
			i.anchor = next
			return i.outcomeFor(ctx, next)
		}
		cur = next
	}
}

// execGNP advances in hierarchic order within the subtree of the current
// anchor (the last GU/GN target).
func (i *Interface) execGNP(ctx context.Context, gnp *dli.GNP) (*Outcome, error) {
	if !i.anchor.Valid {
		return nil, fmt.Errorf("hiekms: GNP requires an established parent (issue GU or GN first)")
	}
	cur := i.pos
	for {
		next, err := i.nextPreorder(ctx, cur)
		if err != nil {
			return nil, err
		}
		if !next.Valid {
			return &Outcome{Status: StatusGE}, nil
		}
		in, err := i.within(ctx, next, i.anchor)
		if err != nil {
			return nil, err
		}
		if !in {
			return &Outcome{Status: StatusGE}, nil
		}
		if gnp.Segment == "" || next.Seg == gnp.Segment {
			i.pos = next // the anchor stays: more GNPs continue the scan
			return i.outcomeFor(ctx, next)
		}
		cur = next
	}
}

// execISRT inserts a new occurrence. A root segment needs no position; a
// dependent segment's parent occurrence is the current position or one of
// its ancestors.
func (i *Interface) execISRT(ctx context.Context, is *dli.ISRT) (*Outcome, error) {
	seg, ok := i.schema.Segment(is.Segment)
	if !ok {
		return nil, fmt.Errorf("hiekms: unknown segment %q", is.Segment)
	}
	rec := abdm.NewRecord(seg.Name)
	key := i.kc.NextKey()
	rec.Set(seg.Name, abdm.Int(key))
	if seg.Parent != "" {
		parentKey, err := i.resolveParent(ctx, seg.Parent)
		if err != nil {
			return nil, err
		}
		rec.Set(seg.Parent, abdm.Int(parentKey))
	}
	assigned := map[string]bool{}
	for _, a := range is.Assigns {
		f, ok := seg.Field(a.Field)
		if !ok {
			return nil, fmt.Errorf("hiekms: segment %q has no field %q", seg.Name, a.Field)
		}
		val, err := coerceField(a.Val, f)
		if err != nil {
			return nil, err
		}
		rec.Set(a.Field, val)
		assigned[a.Field] = true
	}
	for _, f := range seg.Fields {
		if !assigned[f.Name] {
			rec.Set(f.Name, abdm.Null())
		}
	}
	if _, err := i.kc.ExecCtx(ctx, abdl.NewInsert(rec)); err != nil {
		return nil, err
	}
	i.pos = position{Seg: seg.Name, Key: key, Valid: true}
	i.anchor = i.pos
	return i.outcomeFor(ctx, i.pos)
}

// resolveParent finds the parent occurrence for an ISRT: the current
// position if it is of the parent type, else the nearest ancestor of that
// type.
func (i *Interface) resolveParent(ctx context.Context, parentSeg string) (currency.Key, error) {
	p := i.pos
	for p.Valid {
		if p.Seg == parentSeg {
			return p.Key, nil
		}
		var err error
		p, err = i.parentOf(ctx, p)
		if err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("hiekms: no current %q occurrence to insert under (issue GU first)", parentSeg)
}

func coerceField(v abdm.Value, f *hiemodel.Field) (abdm.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch f.Type {
	case hiemodel.FieldInt:
		if v.Kind() == abdm.KindInt {
			return v, nil
		}
	case hiemodel.FieldFloat:
		if v.Kind() == abdm.KindFloat {
			return v, nil
		}
		if v.Kind() == abdm.KindInt {
			return abdm.Float(float64(v.AsInt())), nil
		}
	default:
		if v.Kind() == abdm.KindString {
			return v, nil
		}
	}
	return abdm.Value{}, fmt.Errorf("hiekms: value %s does not fit field %q (%s)", v, f.Name, f.Type)
}

// execREPL updates fields of the current occurrence.
func (i *Interface) execREPL(ctx context.Context, r *dli.REPL) (*Outcome, error) {
	if !i.pos.Valid {
		return nil, fmt.Errorf("hiekms: REPL requires a current position")
	}
	seg, _ := i.schema.Segment(i.pos.Seg)
	var mods []abdl.Modifier
	for _, a := range r.Assigns {
		f, ok := seg.Field(a.Field)
		if !ok {
			return nil, fmt.Errorf("hiekms: segment %q has no field %q", seg.Name, a.Field)
		}
		val, err := coerceField(a.Val, f)
		if err != nil {
			return nil, err
		}
		mods = append(mods, abdl.Modifier{Attr: a.Field, Val: val})
	}
	q := abdm.And(filePred(seg.Name),
		abdm.Predicate{Attr: seg.Name, Op: abdm.OpEq, Val: abdm.Int(i.pos.Key)})
	if _, err := i.kc.ExecCtx(ctx, abdl.NewUpdate(q, mods...)); err != nil {
		return nil, err
	}
	return i.outcomeFor(ctx, i.pos)
}

// execDLET deletes the current occurrence and all of its dependents (IMS
// deletes the whole subtree).
func (i *Interface) execDLET(ctx context.Context) (*Outcome, error) {
	if !i.pos.Valid {
		return nil, fmt.Errorf("hiekms: DLET requires a current position")
	}
	deleted := i.pos
	if err := i.deleteSubtree(ctx, i.pos); err != nil {
		return nil, err
	}
	i.pos = position{}
	i.anchor = position{}
	return &Outcome{Status: StatusOK, Segment: deleted.Seg, Key: deleted.Key}, nil
}

func (i *Interface) deleteSubtree(ctx context.Context, p position) error {
	kids, err := i.children(ctx, p)
	if err != nil {
		return err
	}
	for _, k := range kids {
		if err := i.deleteSubtree(ctx, k); err != nil {
			return err
		}
	}
	q := abdm.And(filePred(p.Seg),
		abdm.Predicate{Attr: p.Seg, Op: abdm.OpEq, Val: abdm.Int(p.Key)})
	_, err = i.kc.ExecCtx(ctx, abdl.NewDelete(q))
	return err
}
