// Package dapkms implements the kernel mapping system of the Daplex language
// interface: it executes Daplex DML statements against the AB(functional)
// kernel database. Together with the CODASYL-DML translator it demonstrates
// the MLDS goal — the same functional database served to two data models —
// and supplies the reference results the cross-model equivalence experiment
// compares against.
package dapkms

import (
	"context"
	"fmt"
	"sort"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/currency"
	"mlds/internal/daplex"
	"mlds/internal/funcmodel"
	"mlds/internal/kc"
	"mlds/internal/xform"
)

// Interface is one user's Daplex session against a functional database.
type Interface struct {
	fun     *funcmodel.Schema
	mapping *xform.Mapping
	ab      *xform.ABSchema
	kc      *kc.Controller
}

// New builds a Daplex interface over a transformed functional database.
func New(m *xform.Mapping, ab *xform.ABSchema, ctrl *kc.Controller) *Interface {
	return &Interface{fun: m.Fun, mapping: m, ab: ab, kc: ctrl}
}

// Row is one entity in a FOR EACH result: its key plus the printed function
// values (multi-valued functions yield every value).
type Row struct {
	Key    currency.Key
	Values map[string][]abdm.Value
}

// ExecCtx runs one DML statement under the request context: every kernel
// request it issues carries ctx, so the controller joins the context's
// transaction and attaches its trace spans beneath the caller's. FOR EACH
// returns rows; the other statements return nil rows.
func (i *Interface) ExecCtx(ctx context.Context, st daplex.DMLStmt) ([]Row, error) {
	switch v := st.(type) {
	case *daplex.ForEach:
		return i.forEach(ctx, v)
	case *daplex.Create:
		return nil, i.create(ctx, v)
	case *daplex.Let:
		return nil, i.let(ctx, v)
	case *daplex.Destroy:
		return nil, i.destroy(ctx, v)
	case *daplex.Include:
		return nil, i.include(ctx, v)
	case *daplex.Exclude:
		return nil, i.exclude(ctx, v)
	default:
		return nil, fmt.Errorf("dapkms: unsupported statement %T", st)
	}
}

// homeOf resolves a function visible on typeName to its declaring type,
// which is the kernel file carrying the function's attribute.
func (i *Interface) homeOf(typeName, fn string) (string, *funcmodel.Function, error) {
	if !i.fun.IsType(typeName) {
		return "", nil, fmt.Errorf("dapkms: unknown type %q", typeName)
	}
	home, f, ok := i.fun.FunctionHome(fn)
	if !ok {
		return "", nil, fmt.Errorf("dapkms: unknown function %q", fn)
	}
	if home != typeName {
		found := false
		for _, anc := range i.fun.AncestorChain(typeName) {
			if anc == home {
				found = true
				break
			}
		}
		if !found {
			return "", nil, fmt.Errorf("dapkms: function %q (of %q) is not applicable to %q", fn, home, typeName)
		}
	}
	return home, f, nil
}

// filePredOf builds the FILE predicate for a type's kernel file.
func filePredOf(typeName string) abdm.Predicate {
	return abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(typeName)}
}

// keysMatching returns the distinct entity keys in file whose records
// satisfy the conjunction, sorted.
func (i *Interface) keysMatching(ctx context.Context, file string, conds abdm.Conjunction) (map[currency.Key]bool, error) {
	q := abdm.Conjunction{filePredOf(file)}
	q = append(q, conds...)
	res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(abdm.Query{q}, i.ab.KeyOf(file)))
	if err != nil {
		return nil, err
	}
	keys := make(map[currency.Key]bool)
	for _, sr := range res.Records {
		if v, ok := sr.Rec.Get(i.ab.KeyOf(file)); ok && v.Kind() == abdm.KindInt {
			keys[v.AsInt()] = true
		}
	}
	return keys, nil
}

// resolveWhere evaluates a WHERE clause over the type: each condition runs
// against its function's home file, and the per-condition key sets are
// intersected with the type's own key set (a key-equijoin across the
// entity's hierarchy files).
func (i *Interface) resolveWhere(ctx context.Context, typeName string, where []daplex.Cond) ([]currency.Key, error) {
	result, err := i.keysMatching(ctx, typeName, nil)
	if err != nil {
		return nil, err
	}
	for _, c := range where {
		home, f, err := i.homeOf(typeName, c.Func)
		if err != nil {
			return nil, err
		}
		val := c.Val
		if f.Result.IsEntity() && !val.IsNull() && val.Kind() != abdm.KindInt {
			return nil, fmt.Errorf("dapkms: function %q is entity-valued; compare with a key", c.Func)
		}
		ks, err := i.keysMatching(ctx, home, abdm.Conjunction{{Attr: c.Func, Op: c.Op, Val: val}})
		if err != nil {
			return nil, err
		}
		for k := range result {
			if !ks[k] {
				delete(result, k)
			}
		}
	}
	out := make([]currency.Key, 0, len(result))
	for k := range result {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// forEach evaluates the retrieval statement and returns one row per
// qualifying entity, keys ascending.
func (i *Interface) forEach(ctx context.Context, st *daplex.ForEach) ([]Row, error) {
	keys, err := i.resolveWhere(ctx, st.Type, st.Where)
	if err != nil {
		return nil, err
	}
	// Group the printed functions by home file to batch the retrievals.
	homes := make(map[string][]string)
	for _, fn := range st.Print {
		home, _, err := i.homeOf(st.Type, fn)
		if err != nil {
			return nil, err
		}
		homes[home] = append(homes[home], fn)
	}
	rows := make([]Row, len(keys))
	index := make(map[currency.Key]int, len(keys))
	for n, k := range keys {
		rows[n] = Row{Key: k, Values: make(map[string][]abdm.Value)}
		index[k] = n
	}
	if len(keys) == 0 {
		return rows, nil
	}
	for home, fns := range homes {
		q := make(abdm.Query, 0, len(keys))
		for _, k := range keys {
			q = append(q, abdm.Conjunction{
				filePredOf(home),
				{Attr: i.ab.KeyOf(home), Op: abdm.OpEq, Val: abdm.Int(k)},
			})
		}
		res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(q, append([]string{i.ab.KeyOf(home)}, fns...)...))
		if err != nil {
			return nil, err
		}
		for _, sr := range res.Records {
			kv, ok := sr.Rec.Get(i.ab.KeyOf(home))
			if !ok {
				continue
			}
			n, ok := index[kv.AsInt()]
			if !ok {
				continue
			}
			for _, fn := range fns {
				v, ok := sr.Rec.Get(fn)
				if !ok || v.IsNull() {
					continue
				}
				if !containsValue(rows[n].Values[fn], v) {
					rows[n].Values[fn] = append(rows[n].Values[fn], v)
				}
			}
		}
	}
	return rows, nil
}

func containsValue(vs []abdm.Value, v abdm.Value) bool {
	for _, x := range vs {
		if x.Equal(v) || (x.IsNull() && v.IsNull()) {
			return true
		}
	}
	return false
}

// create makes a new entity of the type: one kernel record per file in its
// hierarchy, sharing a fresh key, with the assigned function values placed
// in their home files. Uniqueness constraints are enforced the same way the
// CODASYL STORE translation enforces them.
func (i *Interface) create(ctx context.Context, st *daplex.Create) error {
	if !i.fun.IsType(st.Type) {
		return fmt.Errorf("dapkms: unknown type %q", st.Type)
	}
	assigns := make(map[string]map[string]abdm.Value) // home file → fn → value
	for _, a := range st.Assigns {
		home, f, err := i.homeOf(st.Type, a.Func)
		if err != nil {
			return err
		}
		if f.SetValued {
			return fmt.Errorf("dapkms: CREATE cannot assign multi-valued function %q", a.Func)
		}
		want, _ := i.ab.Dir.AttrKind(a.Func)
		val, err := coerce(a.Val, want)
		if err != nil {
			return fmt.Errorf("dapkms: %q: %w", a.Func, err)
		}
		if assigns[home] == nil {
			assigns[home] = make(map[string]abdm.Value)
		}
		assigns[home][a.Func] = val
	}
	// Uniqueness: any constraint whose functions are all assigned.
	for _, u := range i.fun.Uniques {
		applies := u.Within == st.Type
		for _, anc := range i.fun.AncestorChain(st.Type) {
			if anc == u.Within {
				applies = true
			}
		}
		if !applies {
			continue
		}
		conj := abdm.Conjunction{}
		complete := true
		var homeFile string
		for _, fn := range u.Functions {
			home, _, err := i.homeOf(st.Type, fn)
			if err != nil {
				return err
			}
			homeFile = home
			v, ok := assigns[home][fn]
			if !ok || v.IsNull() {
				complete = false
				break
			}
			conj = append(conj, abdm.Predicate{Attr: fn, Op: abdm.OpEq, Val: v})
		}
		if !complete {
			continue
		}
		ks, err := i.keysMatching(ctx, homeFile, conj)
		if err != nil {
			return err
		}
		if len(ks) > 0 {
			return fmt.Errorf("dapkms: uniqueness constraint on %v within %q violated", u.Functions, u.Within)
		}
	}
	key := i.kc.NextKey()
	files := append([]string{st.Type}, i.fun.AncestorChain(st.Type)...)
	for _, file := range files {
		rec := abdm.NewRecord(file)
		rec.Set(i.ab.KeyOf(file), abdm.Int(key))
		tmpl, _ := i.ab.Dir.FileTemplate(file)
		for _, attr := range tmpl {
			if rec.Has(attr) {
				continue
			}
			if v, ok := assigns[file][attr]; ok {
				rec.Set(attr, v)
			} else {
				rec.Set(attr, abdm.Null())
			}
		}
		if _, err := i.kc.ExecCtx(ctx, abdl.NewInsert(rec)); err != nil {
			return err
		}
	}
	return nil
}

func coerce(v abdm.Value, want abdm.Kind) (abdm.Value, error) {
	if v.IsNull() || v.Kind() == want {
		return v, nil
	}
	if v.Kind() == abdm.KindInt && want == abdm.KindFloat {
		return abdm.Float(float64(v.AsInt())), nil
	}
	return abdm.Value{}, fmt.Errorf("value %v is %v, function wants %v", v, v.Kind(), want)
}

// let updates a single-valued function over the matching entities.
func (i *Interface) let(ctx context.Context, st *daplex.Let) error {
	home, f, err := i.homeOf(st.Type, st.Func)
	if err != nil {
		return err
	}
	if f.SetValued {
		return fmt.Errorf("dapkms: LET cannot assign multi-valued function %q", st.Func)
	}
	want, _ := i.ab.Dir.AttrKind(st.Func)
	val, err := coerce(st.Val, want)
	if err != nil {
		return fmt.Errorf("dapkms: %q: %w", st.Func, err)
	}
	keys, err := i.resolveWhere(ctx, st.Type, st.Where)
	if err != nil {
		return err
	}
	for _, k := range keys {
		req := abdl.NewUpdate(
			abdm.And(filePredOf(home), abdm.Predicate{Attr: i.ab.KeyOf(home), Op: abdm.OpEq, Val: abdm.Int(k)}),
			abdl.Modifier{Attr: st.Func, Val: val},
		)
		if _, err := i.kc.ExecCtx(ctx, req); err != nil {
			return err
		}
	}
	return nil
}

// destroy removes the matching entities and their subtype hierarchy (the
// Daplex DESTROY semantics), aborting if any entity is referenced by a
// database function.
func (i *Interface) destroy(ctx context.Context, st *daplex.Destroy) error {
	keys, err := i.resolveWhere(ctx, st.Type, st.Where)
	if err != nil {
		return err
	}
	// The downward closure: the type plus its transitive subtypes.
	files := []string{st.Type}
	for n := 0; n < len(files); n++ {
		files = append(files, i.fun.SubtypesOf(files[n])...)
	}
	for _, k := range keys {
		if err := i.checkUnreferenced(ctx, files, k); err != nil {
			return err
		}
	}
	for _, k := range keys {
		for _, file := range files {
			req := abdl.NewDelete(abdm.And(
				filePredOf(file),
				abdm.Predicate{Attr: i.ab.KeyOf(file), Op: abdm.OpEq, Val: abdm.Int(k)},
			))
			if _, err := i.kc.ExecCtx(ctx, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkUnreferenced verifies no database function references the entity in
// any of the files being destroyed.
func (i *Interface) checkUnreferenced(ctx context.Context, files []string, key currency.Key) error {
	inFiles := func(name string) bool {
		for _, f := range files {
			if f == name {
				return true
			}
		}
		return false
	}
	for _, stp := range i.mapping.Net.Sets {
		aset := i.ab.Sets[stp.Name]
		var refFile string
		switch aset.Place {
		case xform.PlaceMemberAttr, xform.PlaceLinkAttr:
			// The attribute holds the OWNER's key: references to an owner
			// being destroyed.
			if !inFiles(stp.Owner) {
				continue
			}
			refFile = aset.File
		case xform.PlaceOwnerAttr:
			// The attribute holds the MEMBER's key.
			if !inFiles(stp.Member) {
				continue
			}
			refFile = aset.File
		default:
			continue
		}
		if inFiles(refFile) {
			continue // the referencing records are being destroyed too
		}
		res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(
			abdm.And(filePredOf(refFile),
				abdm.Predicate{Attr: aset.Attr, Op: abdm.OpEq, Val: abdm.Int(key)}),
			i.ab.KeyOf(refFile),
		))
		if err != nil {
			return err
		}
		if len(res.Records) > 0 {
			return fmt.Errorf("dapkms: DESTROY aborted: entity %d is referenced by function %q", key, stp.Name)
		}
	}
	return nil
}
