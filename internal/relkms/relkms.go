// Package relkms implements the kernel mapping system of the SQL language
// interface: the relational→ABDM schema transformation (a file per table, an
// attribute per column) and the translation of the SQL DML subset into ABDL
// requests.
package relkms

import (
	"context"
	"fmt"
	"sort"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kc"
	"mlds/internal/relmodel"
	"mlds/internal/sql"
)

// DeriveAB maps a relational schema onto a kernel directory: each table
// becomes a file whose template is its column list.
func DeriveAB(s *relmodel.Schema) (*abdm.Directory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dir := abdm.NewDirectory()
	for _, t := range s.Tables {
		var tmpl []string
		for _, c := range t.Columns {
			var kind abdm.Kind
			switch c.Type {
			case relmodel.ColInt:
				kind = abdm.KindInt
			case relmodel.ColFloat:
				kind = abdm.KindFloat
			default:
				kind = abdm.KindString
			}
			if err := dir.DefineAttr(c.Name, kind); err != nil {
				return nil, fmt.Errorf("relkms: table %q: %w", t.Name, err)
			}
			tmpl = append(tmpl, c.Name)
		}
		if err := dir.DefineFile(t.Name, tmpl); err != nil {
			return nil, err
		}
	}
	return dir, nil
}

// Interface is one user's SQL session over a relational database.
type Interface struct {
	schema *relmodel.Schema
	kc     *kc.Controller
}

// New builds a SQL interface.
func New(s *relmodel.Schema, ctrl *kc.Controller) *Interface {
	return &Interface{schema: s, kc: ctrl}
}

// ResultSet is the outcome of one SQL statement: result rows for SELECT,
// the affected-row count otherwise.
type ResultSet struct {
	Columns []string
	Rows    [][]abdm.Value
	Count   int
}

// ExecCtx executes one parsed statement under the request context: every
// kernel request it issues carries ctx, so the controller joins the
// context's transaction and attaches its trace spans beneath the caller's.
func (i *Interface) ExecCtx(ctx context.Context, st sql.Stmt) (*ResultSet, error) {
	switch v := st.(type) {
	case *sql.Select:
		return i.execSelect(ctx, v)
	case *sql.Insert:
		return i.execInsert(ctx, v)
	case *sql.Update:
		return i.execUpdate(ctx, v)
	case *sql.Delete:
		return i.execDelete(ctx, v)
	case *sql.Watch, *sql.CreateView:
		// Change subscriptions and view maintenance live above the mapping
		// system (the session layer intercepts these verbs before parsing).
		return nil, fmt.Errorf("relkms: %T is handled by the session layer, not the mapping system", st)
	default:
		return nil, fmt.Errorf("relkms: unsupported statement %T", st)
	}
}

// query builds the ABDL qualification for a table and WHERE clause: the
// first predicate of every conjunction is (FILE = table).
func (i *Interface) query(table *relmodel.Table, where sql.Where) (abdm.Query, error) {
	filePred := abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(table.Name)}
	if len(where) == 0 {
		return abdm.Query{{filePred}}, nil
	}
	var q abdm.Query
	for _, conds := range where {
		conj := abdm.Conjunction{filePred}
		for _, c := range conds {
			col, ok := table.Column(c.Column)
			if !ok {
				return nil, fmt.Errorf("relkms: table %q has no column %q", table.Name, c.Column)
			}
			val, err := coerce(c.Val, col)
			if err != nil {
				return nil, fmt.Errorf("relkms: column %q: %w", c.Column, err)
			}
			conj = append(conj, abdm.Predicate{Attr: c.Column, Op: c.Op, Val: val})
		}
		q = append(q, conj)
	}
	return q, nil
}

func coerce(v abdm.Value, col *relmodel.Column) (abdm.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch col.Type {
	case relmodel.ColInt:
		if v.Kind() == abdm.KindInt {
			return v, nil
		}
		if v.Kind() == abdm.KindFloat && v.AsFloat() == float64(int64(v.AsFloat())) {
			return abdm.Int(int64(v.AsFloat())), nil
		}
	case relmodel.ColFloat:
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
	return abdm.Value{}, fmt.Errorf("value %s does not fit %s", v, col.Type)
}

func (i *Interface) table(name string) (*relmodel.Table, error) {
	t, ok := i.schema.Table(name)
	if !ok {
		return nil, fmt.Errorf("relkms: no table named %q", name)
	}
	return t, nil
}

func (i *Interface) execSelect(ctx context.Context, st *sql.Select) (*ResultSet, error) {
	table, err := i.table(st.Table)
	if err != nil {
		return nil, err
	}
	q, err := i.query(table, st.Where)
	if err != nil {
		return nil, err
	}
	// Resolve the output columns.
	hasAgg := false
	for _, it := range st.Items {
		if it.Column != "*" {
			if _, ok := table.Column(it.Column); !ok {
				return nil, fmt.Errorf("relkms: table %q has no column %q", st.Table, it.Column)
			}
		}
		if it.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	req := &abdl.Request{Kind: abdl.Retrieve, Query: q}
	for _, it := range st.Items {
		target := abdl.TargetItem{Attr: it.Column}
		if it.Column == "*" {
			target.Attr = abdl.AllAttrs
		}
		switch it.Agg {
		case sql.AggCount:
			target.Agg = abdl.AggCount
		case sql.AggSum:
			target.Agg = abdl.AggSum
		case sql.AggAvg:
			target.Agg = abdl.AggAvg
		case sql.AggMin:
			target.Agg = abdl.AggMin
		case sql.AggMax:
			target.Agg = abdl.AggMax
		}
		if target.Agg != abdl.AggNone && target.Attr == abdl.AllAttrs {
			// COUNT(*) counts rows: count the first column, which every row
			// carries (possibly as NULL — count FILE instead, always present).
			target.Attr = abdm.FileAttr
		}
		req.Target = append(req.Target, target)
	}
	if st.GroupBy != "" {
		if _, ok := table.Column(st.GroupBy); !ok {
			return nil, fmt.Errorf("relkms: table %q has no column %q", st.Table, st.GroupBy)
		}
		req.By = st.GroupBy
	}
	res, err := i.kc.ExecCtx(ctx, req)
	if err != nil {
		return nil, err
	}

	out := &ResultSet{}
	if hasAgg {
		// Aggregate output: one row per group (or one row total). The group
		// key column leads unless the select list already names it.
		groupInItems := false
		for _, it := range st.Items {
			if it.Agg == sql.AggNone && it.Column == st.GroupBy {
				groupInItems = true
			}
		}
		leadGroup := st.GroupBy != "" && !groupInItems
		if leadGroup {
			out.Columns = append(out.Columns, st.GroupBy)
		}
		for _, it := range st.Items {
			out.Columns = append(out.Columns, it.String())
		}
		for _, g := range res.Groups {
			var row []abdm.Value
			if leadGroup {
				row = append(row, g.By)
			}
			a := 0
			for _, it := range st.Items {
				if it.Agg == sql.AggNone {
					// Plain column in an aggregate select: group key only.
					if it.Column == st.GroupBy {
						row = append(row, g.By)
					} else {
						row = append(row, abdm.Null())
					}
					continue
				}
				if a < len(g.Aggs) {
					row = append(row, g.Aggs[a].Val)
					a++
				}
			}
			out.Rows = append(out.Rows, row)
		}
		out.Count = len(out.Rows)
		return out, nil
	}

	// Plain rows.
	if len(st.Items) == 1 && st.Items[0].Column == "*" {
		for _, c := range table.Columns {
			out.Columns = append(out.Columns, c.Name)
		}
	} else {
		for _, it := range st.Items {
			out.Columns = append(out.Columns, it.Column)
		}
	}
	for _, sr := range res.Records {
		row := make([]abdm.Value, len(out.Columns))
		for n, col := range out.Columns {
			if v, ok := sr.Rec.Get(col); ok {
				row[n] = v
			} else {
				row[n] = abdm.Null()
			}
		}
		out.Rows = append(out.Rows, row)
	}
	if st.OrderBy != "" {
		idx := -1
		for n, col := range out.Columns {
			if col == st.OrderBy {
				idx = n
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("relkms: ORDER BY column %q not in the select list", st.OrderBy)
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			cmp, err := out.Rows[a][idx].Compare(out.Rows[b][idx])
			if err != nil {
				return false
			}
			if st.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	out.Count = len(out.Rows)
	return out, nil
}

func (i *Interface) execInsert(ctx context.Context, st *sql.Insert) (*ResultSet, error) {
	table, err := i.table(st.Table)
	if err != nil {
		return nil, err
	}
	rec := abdm.NewRecord(st.Table)
	assigned := make(map[string]bool)
	for n, colName := range st.Columns {
		col, ok := table.Column(colName)
		if !ok {
			return nil, fmt.Errorf("relkms: table %q has no column %q", st.Table, colName)
		}
		val, err := coerce(st.Values[n], col)
		if err != nil {
			return nil, fmt.Errorf("relkms: column %q: %w", colName, err)
		}
		rec.Set(colName, val)
		assigned[colName] = true
	}
	for _, col := range table.Columns {
		if assigned[col.Name] {
			continue
		}
		rec.Set(col.Name, abdm.Null())
	}
	// Constraints: NOT NULL and UNIQUE.
	for _, col := range table.Columns {
		v, _ := rec.Get(col.Name)
		if col.NotNull && v.IsNull() {
			return nil, fmt.Errorf("relkms: column %q is NOT NULL", col.Name)
		}
		if col.Unique && !v.IsNull() {
			res, err := i.kc.ExecCtx(ctx, abdl.NewRetrieve(abdm.And(
				abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(st.Table)},
				abdm.Predicate{Attr: col.Name, Op: abdm.OpEq, Val: v},
			), col.Name))
			if err != nil {
				return nil, err
			}
			if len(res.Records) > 0 {
				return nil, fmt.Errorf("relkms: UNIQUE violation on %s.%s", st.Table, col.Name)
			}
		}
	}
	if _, err := i.kc.ExecCtx(ctx, abdl.NewInsert(rec)); err != nil {
		return nil, err
	}
	return &ResultSet{Count: 1}, nil
}

func (i *Interface) execUpdate(ctx context.Context, st *sql.Update) (*ResultSet, error) {
	table, err := i.table(st.Table)
	if err != nil {
		return nil, err
	}
	q, err := i.query(table, st.Where)
	if err != nil {
		return nil, err
	}
	var mods []abdl.Modifier
	for _, a := range st.Set {
		col, ok := table.Column(a.Column)
		if !ok {
			return nil, fmt.Errorf("relkms: table %q has no column %q", st.Table, a.Column)
		}
		val, err := coerce(a.Val, col)
		if err != nil {
			return nil, fmt.Errorf("relkms: column %q: %w", a.Column, err)
		}
		if col.NotNull && val.IsNull() {
			return nil, fmt.Errorf("relkms: column %q is NOT NULL", a.Column)
		}
		mods = append(mods, abdl.Modifier{Attr: a.Column, Val: val})
	}
	res, err := i.kc.ExecCtx(ctx, abdl.NewUpdate(q, mods...))
	if err != nil {
		return nil, err
	}
	return &ResultSet{Count: res.Count}, nil
}

func (i *Interface) execDelete(ctx context.Context, st *sql.Delete) (*ResultSet, error) {
	table, err := i.table(st.Table)
	if err != nil {
		return nil, err
	}
	q, err := i.query(table, st.Where)
	if err != nil {
		return nil, err
	}
	res, err := i.kc.ExecCtx(ctx, abdl.NewDelete(q))
	if err != nil {
		return nil, err
	}
	return &ResultSet{Count: res.Count}, nil
}
