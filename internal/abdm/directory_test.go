package abdm

import "testing"

func univDir(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.DefineAttr("title", KindString))
	must(d.DefineAttr("credits", KindInt))
	must(d.DefineAttr("rating", KindFloat))
	must(d.DefineFile("course", []string{"title", "credits", "rating"}))
	return d
}

func TestDirectoryDefineAttr(t *testing.T) {
	d := univDir(t)
	if k, ok := d.AttrKind("title"); !ok || k != KindString {
		t.Errorf("AttrKind(title) = %v,%v", k, ok)
	}
	if err := d.DefineAttr("title", KindString); err != nil {
		t.Errorf("idempotent redeclare failed: %v", err)
	}
	if err := d.DefineAttr("title", KindInt); err == nil {
		t.Error("conflicting redeclare should fail")
	}
	if _, ok := d.AttrKind(FileAttr); !ok {
		t.Error("FILE should be pre-declared")
	}
}

func TestDirectoryDefineFile(t *testing.T) {
	d := univDir(t)
	if err := d.DefineFile("bad", []string{"nosuch"}); err == nil {
		t.Error("DefineFile should reject undeclared attributes")
	}
	tmpl, ok := d.FileTemplate("course")
	if !ok || len(tmpl) != 3 || tmpl[0] != "title" {
		t.Errorf("FileTemplate = %v,%v", tmpl, ok)
	}
	files := d.Files()
	if len(files) != 1 || files[0] != "course" {
		t.Errorf("Files() = %v", files)
	}
}

func TestDirectoryValidateRecord(t *testing.T) {
	d := univDir(t)
	good := NewRecord("course", Keyword{"title", String("DB")}, Keyword{"credits", Int(4)})
	if err := d.ValidateRecord(good); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	nullOK := NewRecord("course", Keyword{"credits", Null()})
	if err := d.ValidateRecord(nullOK); err != nil {
		t.Errorf("NULL value rejected: %v", err)
	}
	cases := []*Record{
		{Keywords: []Keyword{{"title", String("x")}}},           // no FILE
		NewRecord("nosuchfile"),                                 // undeclared file
		NewRecord("course", Keyword{"bogus", Int(1)}),           // undeclared attr
		NewRecord("course", Keyword{"credits", String("four")}), // kind mismatch
	}
	for i, r := range cases {
		if err := d.ValidateRecord(r); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

func TestDirectoryValidateQuery(t *testing.T) {
	d := univDir(t)
	ok := And(
		Predicate{FileAttr, OpEq, String("course")},
		Predicate{"credits", OpGe, Int(3)},
	)
	if err := d.ValidateQuery(ok); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	// int attribute compared with float literal: allowed (numeric family).
	numOK := And(Predicate{"credits", OpLt, Float(3.5)})
	if err := d.ValidateQuery(numOK); err != nil {
		t.Errorf("numeric-family query rejected: %v", err)
	}
	bad := And(Predicate{"credits", OpEq, String("four")})
	if err := d.ValidateQuery(bad); err == nil {
		t.Error("kind-mismatched query accepted")
	}
	unk := And(Predicate{"nosuch", OpEq, Int(1)})
	if err := d.ValidateQuery(unk); err == nil {
		t.Error("query on undeclared attribute accepted")
	}
}

func TestDirectoryClone(t *testing.T) {
	d := univDir(t)
	cp := d.Clone()
	if err := cp.DefineAttr("extra", KindInt); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.AttrKind("extra"); ok {
		t.Error("Clone shares attribute map with original")
	}
	if _, ok := cp.FileTemplate("course"); !ok {
		t.Error("Clone lost file template")
	}
}

func TestDirectoryLockKey(t *testing.T) {
	d := univDir(t)
	if k, ok := d.LockKey("course"); !ok || k != "title" {
		t.Errorf("LockKey(course) = %q,%v, want title", k, ok)
	}
	if err := d.DefineFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"empty", "nosuch"} {
		if k, ok := d.LockKey(f); ok {
			t.Errorf("LockKey(%s) = %q, want none", f, k)
		}
	}
}
