package abdm

import (
	"fmt"
	"sort"
	"sync"
)

// Directory is the kernel database's attribute catalog: it records the
// declared type of every attribute and the set of files the database holds.
// MBDS uses the directory both to validate incoming records and to decide
// which attributes are indexed ("directory attributes").
type Directory struct {
	mu    sync.RWMutex
	attrs map[string]Kind
	files map[string][]string // file -> attribute template, in declaration order
}

// NewDirectory returns an empty directory with FILE pre-declared as a string
// attribute.
func NewDirectory() *Directory {
	d := &Directory{
		attrs: make(map[string]Kind),
		files: make(map[string][]string),
	}
	d.attrs[FileAttr] = KindString
	return d
}

// DefineAttr declares an attribute's type. Redeclaring an attribute with the
// same kind is a no-op; with a different kind it is an error — ABDM attribute
// names are global to the database.
func (d *Directory) DefineAttr(name string, kind Kind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k, ok := d.attrs[name]; ok && k != kind {
		return fmt.Errorf("abdm: attribute %q already declared as %s, cannot redeclare as %s", name, k, kind)
	}
	d.attrs[name] = kind
	return nil
}

// AttrKind reports an attribute's declared kind.
func (d *Directory) AttrKind(name string) (Kind, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	k, ok := d.attrs[name]
	return k, ok
}

// DefineFile declares a file and its attribute template (the attributes its
// records are expected to carry, FILE excluded). All template attributes must
// already be declared.
func (d *Directory) DefineFile(name string, template []string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range template {
		if _, ok := d.attrs[a]; !ok {
			return fmt.Errorf("abdm: file %q template names undeclared attribute %q", name, a)
		}
	}
	d.files[name] = append([]string(nil), template...)
	return nil
}

// FileTemplate returns the declared attribute template of a file.
func (d *Directory) FileTemplate(name string) ([]string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.files[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), t...), true
}

// LockKey returns the file's lock key: the first attribute of its template,
// the record type's key in the kernel layout every model derives (FILE, then
// the key, then the rest). The transaction manager locks records by their
// value of it. ok is false for an undeclared file or an empty template.
func (d *Directory) LockKey(file string) (attr string, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.files[file]
	if len(t) == 0 {
		return "", false
	}
	return t[0], true
}

// Files lists the declared file names, sorted.
func (d *Directory) Files() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.files))
	for f := range d.files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Attrs lists the declared attribute names, sorted.
func (d *Directory) Attrs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.attrs))
	for a := range d.attrs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ValidateRecord checks a record against the directory: every keyword's
// attribute must be declared and its value must be NULL or of the declared
// kind, and the record must carry a FILE keyword naming a declared file.
func (d *Directory) ValidateRecord(r *Record) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	file := r.File()
	if file == "" {
		return fmt.Errorf("abdm: record lacks a FILE keyword")
	}
	if _, ok := d.files[file]; !ok {
		return fmt.Errorf("abdm: record names undeclared file %q", file)
	}
	for _, kw := range r.Keywords {
		k, ok := d.attrs[kw.Attr]
		if !ok {
			return fmt.Errorf("abdm: record keyword names undeclared attribute %q", kw.Attr)
		}
		if !kw.Val.IsNull() && kw.Val.Kind() != k {
			return fmt.Errorf("abdm: attribute %q declared %s but value is %s", kw.Attr, k, kw.Val.Kind())
		}
	}
	return nil
}

// ValidateQuery checks that every predicate names a declared attribute and
// compares it with a value of the declared kind (or NULL). Numeric kinds are
// interchangeable in predicates.
func (d *Directory) ValidateQuery(q Query) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, c := range q {
		for _, p := range c {
			k, ok := d.attrs[p.Attr]
			if !ok {
				return fmt.Errorf("abdm: query names undeclared attribute %q", p.Attr)
			}
			if p.Val.IsNull() {
				continue
			}
			vk := p.Val.Kind()
			numeric := func(x Kind) bool { return x == KindInt || x == KindFloat }
			if vk != k && !(numeric(vk) && numeric(k)) {
				return fmt.Errorf("abdm: predicate on %q (%s) uses %s value", p.Attr, k, vk)
			}
		}
	}
	return nil
}

// Clone returns an independent copy of the directory. Backends each hold a
// copy so that directory lookups never cross goroutine boundaries.
func (d *Directory) Clone() *Directory {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := NewDirectory()
	for a, k := range d.attrs {
		cp.attrs[a] = k
	}
	for f, t := range d.files {
		cp.files[f] = append([]string(nil), t...)
	}
	return cp
}
