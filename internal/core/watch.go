package core

import (
	"fmt"
	"sort"
	"strings"

	"mlds/internal/cdc"
	"mlds/internal/sql"
)

// This file is the change-capture surface of the engine: the WATCH and
// CREATE VIEW / DROP VIEW / SHOW VIEWS verbs every language interface
// accepts (intercepted in session.Execute, like the transaction verbs, so all
// five front ends share one spelling), the Session.Watch channel API, and
// the database's registry of live materialized views.
//
// The query after WATCH and inside CREATE VIEW ... AS is a single-file SQL
// SELECT over the database's kernel files. Because every data model maps
// onto kernel files, the verbs work identically in every session language —
// a relational view over a functional database is the cross-model case the
// paper's shared-kernel architecture makes cheap.

// openWatch parses the WATCH query and starts a watcher on the database.
func (db *Database) openWatch(text string) (*cdc.Watcher, error) {
	def, err := cdc.ParseQuery(text)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	db.vmu.Lock()
	db.watchSeq++
	name := fmt.Sprintf("w%d", db.watchSeq)
	db.vmu.Unlock()
	return cdc.Open(db.Ctrl, def, cdc.Options{Metrics: db.reg, DB: db.Name, Name: name})
}

// Watch opens a change subscription on the session's database.
func (s *session) Watch(query string) (*cdc.Watcher, error) {
	return s.db.openWatch(query)
}

// CreateView starts an incrementally-maintained materialized view and
// registers it under name. It blocks until the initial load is applied, so
// the view is queryable the moment the statement returns.
func (db *Database) CreateView(name string, def cdc.Def) (*cdc.View, error) {
	key := strings.ToLower(name)
	db.vmu.Lock()
	if _, dup := db.views[key]; dup {
		db.vmu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDupView, name)
	}
	// Reserve the name before the (slow) initial load so two concurrent
	// CREATE VIEWs cannot both win.
	db.views[key] = nil
	db.vmu.Unlock()
	v, err := cdc.OpenView(db.Ctrl, name, def, cdc.Options{Metrics: db.reg, DB: db.Name})
	if err == nil {
		<-v.Ready()
		if verr := v.Err(); verr != nil {
			v.Close()
			err = verr
		}
	}
	db.vmu.Lock()
	if err != nil {
		delete(db.views, key)
	} else {
		db.views[key] = v
	}
	db.vmu.Unlock()
	return v, err
}

// DropView stops the named view and forgets it.
func (db *Database) DropView(name string) error {
	key := strings.ToLower(name)
	db.vmu.Lock()
	v, ok := db.views[key]
	delete(db.views, key)
	db.vmu.Unlock()
	if !ok || v == nil {
		return fmt.Errorf("%w: %q", ErrNoView, name)
	}
	v.Close()
	return nil
}

// View returns the named live view.
func (db *Database) View(name string) (*cdc.View, bool) {
	db.vmu.Lock()
	defer db.vmu.Unlock()
	v, ok := db.views[strings.ToLower(name)]
	return v, ok && v != nil
}

// Views lists the database's live views sorted by name.
func (db *Database) Views() []*cdc.View {
	db.vmu.Lock()
	out := make([]*cdc.View, 0, len(db.views))
	for _, v := range db.views {
		if v != nil {
			out = append(out, v)
		}
	}
	db.vmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// closeViews stops every live view; System.Close runs it before the kernel
// goes down so view maintenance never executes against a closed kernel.
func (db *Database) closeViews() {
	for _, v := range db.Views() {
		v.Close()
	}
	db.vmu.Lock()
	db.views = make(map[string]*cdc.View)
	db.vmu.Unlock()
}

// watchVerb recognises the change-capture statements shared by every
// language interface: WATCH <select>, CREATE VIEW <name> AS <select>,
// DROP VIEW <name>, SHOW VIEWS. Like txnVerb it normalises case and a
// trailing semicolon; the statement text itself is returned as arg for the
// verbs that parse further.
func watchVerb(text string) (verb, arg string, ok bool) {
	s := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";"))
	f := strings.Fields(s)
	up := func(i int) string {
		if i < len(f) {
			return strings.ToUpper(f[i])
		}
		return ""
	}
	switch up(0) {
	case "WATCH":
		if len(f) > 1 {
			return "watch", s, true
		}
	case "CREATE":
		if up(1) == "VIEW" {
			return "create-view", s, true
		}
	case "DROP":
		if up(1) == "VIEW" && len(f) == 3 {
			return "drop-view", f[2], true
		}
	case "SHOW":
		if up(1) == "VIEWS" && len(f) == 2 {
			return "show-views", "", true
		}
	}
	return "", "", false
}

// watchControl applies one change-capture verb, filling the outcome.
func (db *Database) watchControl(verb, arg string, out *Outcome) error {
	switch verb {
	case "watch":
		w, err := db.openWatch(arg)
		if err != nil {
			return err
		}
		out.Watch = w
		out.Rendered = "watch established"
	case "create-view":
		st, err := sql.Parse(arg)
		if err != nil {
			return &ParseError{Err: err}
		}
		cv, isView := st.(*sql.CreateView)
		if !isView {
			return &ParseError{Err: fmt.Errorf("core: %q did not parse as CREATE VIEW", arg)}
		}
		def, err := cdc.CompileSelect(cv.Inner)
		if err != nil {
			return &ParseError{Err: err}
		}
		v, err := db.CreateView(cv.Name, def)
		if err != nil {
			return err
		}
		out.Rendered = fmt.Sprintf("view %s over %s created", v.Name, def.File)
	case "drop-view":
		if err := db.DropView(arg); err != nil {
			return err
		}
		out.Rendered = fmt.Sprintf("view %s dropped", arg)
	case "show-views":
		var b strings.Builder
		for _, v := range db.Views() {
			fmt.Fprintf(&b, "%s: %s (pos %d)\n", v.Name, v.Def.String(), v.Pos())
		}
		if b.Len() == 0 {
			out.Rendered = "no views"
		} else {
			out.Rendered = strings.TrimRight(b.String(), "\n")
		}
	}
	return nil
}
