package abdm

import (
	"fmt"
	"sort"
	"strings"
)

// FileAttr is the conventional first attribute of every ABDM record; its
// value names the file the record belongs to.
const FileAttr = "FILE"

// RecordID identifies a stored record. IDs are allocated by the storage layer
// and are unique within one kernel database. Zero is never a valid ID.
type RecordID uint64

// Keyword is an attribute-value pair, the fundamental ABDM construct.
type Keyword struct {
	Attr string
	Val  Value
}

// String renders the keyword in ABDL angle-bracket syntax.
func (k Keyword) String() string { return "<" + k.Attr + ", " + k.Val.String() + ">" }

// Record is an ABDM record: at most one keyword per attribute plus an
// optional free-text remainder. Keyword order is preserved because the FILE
// keyword conventionally comes first and schema mappings assign meaning to
// the second keyword as well.
type Record struct {
	Keywords []Keyword
	Text     string
}

// NewRecord builds a record for the named file followed by the given
// keywords.
func NewRecord(file string, kws ...Keyword) *Record {
	r := &Record{Keywords: make([]Keyword, 0, len(kws)+1)}
	r.Keywords = append(r.Keywords, Keyword{FileAttr, String(file)})
	for _, kw := range kws {
		r.Set(kw.Attr, kw.Val)
	}
	return r
}

// File returns the record's file name, or "" if the record carries no FILE
// keyword.
func (r *Record) File() string {
	if v, ok := r.Get(FileAttr); ok && v.Kind() == KindString {
		return v.AsString()
	}
	return ""
}

// Get returns the value paired with attr.
func (r *Record) Get(attr string) (Value, bool) {
	for _, kw := range r.Keywords {
		if kw.Attr == attr {
			return kw.Val, true
		}
	}
	return Value{}, false
}

// Has reports whether the record carries a keyword for attr.
func (r *Record) Has(attr string) bool {
	_, ok := r.Get(attr)
	return ok
}

// Set assigns attr = val, replacing any existing keyword for attr and
// appending otherwise. The "at most one keyword per attribute" record
// invariant is maintained here.
func (r *Record) Set(attr string, val Value) {
	for i, kw := range r.Keywords {
		if kw.Attr == attr {
			r.Keywords[i].Val = val
			return
		}
	}
	r.Keywords = append(r.Keywords, Keyword{attr, val})
}

// Delete removes the keyword for attr, reporting whether one was present.
func (r *Record) Delete(attr string) bool {
	for i, kw := range r.Keywords {
		if kw.Attr == attr {
			r.Keywords = append(r.Keywords[:i], r.Keywords[i+1:]...)
			return true
		}
	}
	return false
}

// Attrs returns the record's attribute names in keyword order.
func (r *Record) Attrs() []string {
	out := make([]string, len(r.Keywords))
	for i, kw := range r.Keywords {
		out[i] = kw.Attr
	}
	return out
}

// Clone returns a deep copy of the record. A record obtained from the kernel
// — out of a kdb.Result, a store snapshot or an export — is shared with the
// store and with every other reader and must be treated as read-only: Clone
// it before calling Set or Delete.
func (r *Record) Clone() *Record {
	cp := &Record{Keywords: make([]Keyword, len(r.Keywords)), Text: r.Text}
	copy(cp.Keywords, r.Keywords)
	return cp
}

// Equal reports whether two records carry the same keywords (order
// insensitive) and the same text.
func (r *Record) Equal(o *Record) bool {
	if r == nil || o == nil {
		return r == o
	}
	if len(r.Keywords) != len(o.Keywords) || r.Text != o.Text {
		return false
	}
	for _, kw := range r.Keywords {
		ov, ok := o.Get(kw.Attr)
		if !ok || !kw.Val.Equal(ov) {
			return false
		}
	}
	return true
}

// Key returns a canonical string identifying the record's full keyword
// content; records with equal keyword sets produce equal keys. Used for
// duplicate detection and result-set comparison.
func (r *Record) Key() string {
	parts := make([]string, len(r.Keywords))
	for i, kw := range r.Keywords {
		parts[i] = kw.Attr + "=" + kw.Val.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x1f") + "\x1e" + r.Text
}

// String renders the record as an ABDL keyword list:
// (<FILE, course>, <title, 'Database'>, ...).
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, kw := range r.Keywords {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(kw.String())
	}
	b.WriteByte(')')
	if r.Text != "" {
		fmt.Fprintf(&b, " %q", r.Text)
	}
	return b.String()
}
