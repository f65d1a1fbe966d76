package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/core"
	"mlds/internal/univ"
	"mlds/internal/univgen"
)

// fiveLang is the paper's own traffic: one functional University database
// reached through Daplex, CODASYL-DML (the cross-model interface) and ABDL,
// plus a relational and a hierarchical database of comparable size reached
// through SQL and DL/I. Every user cycles through the five languages, one
// operation each, so the share per language is equal by construction. A
// tenth of the operations update in place; the data set never grows.
//
// User u owns the courses, items and department whose index is u modulo
// Users, and only the owner updates them, so a value written through one
// language is checked when it is read back through another.
type fiveLang struct {
	univ univgen.Config
	// items is the relational table's row count; depts x coursesPer x
	// sectionsPer is the hierarchical database's shape.
	items       int
	coursesPer  int
	sectionsPer int
}

const (
	univDB   = "university"
	shopDB   = "shop"
	schoolDB = "school"

	shopDDL = "CREATE TABLE item (id INTEGER NOT NULL, dept INTEGER, cat INTEGER, qty INTEGER, price INTEGER, name CHAR(24));"
	// shopDepts and shopCats shape the GROUP BY query: a department holds
	// items/shopDepts rows in shopCats categories.
	shopDepts = 32
	shopCats  = 8

	schoolDBD = `DBD NAME IS school
SEGMENT NAME IS dept
    FIELD dname CHAR 8
    FIELD floor INTEGER
SEGMENT NAME IS course PARENT IS dept
    FIELD ctitle CHAR 12
    FIELD credits INTEGER
SEGMENT NAME IS section PARENT IS course
    FIELD sname CHAR 16
    FIELD seats INTEGER
`
)

func newFiveLang() *fiveLang {
	return &fiveLang{
		univ: univgen.Config{Departments: 40, Courses: 400, Faculty: 200, Students: 4000,
			Staff: 100, EnrollPerStudent: 3, TeachPerFaculty: 2},
		items: 16_000, coursesPer: 10, sectionsPer: 10,
	}
}

func (w *fiveLang) rate() float64 { return rateFiveLang }

func (w *fiveLang) sessions() []sessionSpec {
	return []sessionSpec{
		{langDaplex, univDB}, {langDML, univDB}, {langABDL, univDB},
		{langSQL, shopDB}, {langDLI, schoolDB},
	}
}

func (w *fiveLang) describe() string {
	return fmt.Sprintf("university: %d departments, %d courses, %d faculty, %d students (functional; Daplex, CODASYL-DML, ABDL); shop.item: %d rows (SQL); school: %d depts x %d courses x %d sections (DL/I); all in memory; 10%% in-place updates",
		w.univ.Departments, w.univ.Courses, w.univ.Faculty, w.univ.Students,
		w.items, Users, w.coursesPer, w.sectionsPer)
}

func (w *fiveLang) build(dir string, tracing bool) (*core.System, error) {
	sys := core.NewSystem(core.Config{Kernel: kernelConfig(), Tracing: tracing})
	if err := w.load(sys); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func (w *fiveLang) load(sys *core.System) error {
	udb, err := sys.CreateFunctional(univDB, univ.SchemaDDL)
	if err != nil {
		return err
	}
	inst, err := univgen.Populate(udb.Mapping, udb.AB, w.univ)
	if err != nil {
		return err
	}
	if _, err := udb.LoadInstance(inst); err != nil {
		return err
	}

	sdb, err := sys.CreateRelational(shopDB, shopDDL)
	if err != nil {
		return err
	}
	reqs := make([]*abdl.Request, 0, loadBatch)
	for off := 0; off < w.items; off += loadBatch {
		reqs = reqs[:0]
		for i := off; i < min(off+loadBatch, w.items); i++ {
			reqs = append(reqs, abdl.NewInsert(abdm.NewRecord("item",
				abdm.Keyword{Attr: "id", Val: abdm.Int(int64(i))},
				abdm.Keyword{Attr: "dept", Val: abdm.Int(int64(itemDept(i)))},
				abdm.Keyword{Attr: "cat", Val: abdm.Int(int64(itemCat(i)))},
				abdm.Keyword{Attr: "qty", Val: abdm.Int(int64(itemQty(i)))},
				abdm.Keyword{Attr: "price", Val: abdm.Int(itemPrice0)},
				abdm.Keyword{Attr: "name", Val: abdm.String(itemName(i))})))
		}
		if _, _, err := sdb.Kernel.ExecBatch(reqs); err != nil {
			return fmt.Errorf("loading items %d..: %w", off, err)
		}
	}

	// The hierarchy is loaded through its own language: ISRT places each
	// segment under the current parent, in hierarchic order.
	if _, err := sys.CreateHierarchical(schoolDB, schoolDBD); err != nil {
		return err
	}
	dl, err := sys.Open(schoolDB, langDLI)
	if err != nil {
		return err
	}
	defer dl.Close()
	isrt := func(call string) error {
		if _, err := dl.Execute(call); err != nil {
			return fmt.Errorf("%s: %w", call, err)
		}
		return nil
	}
	for d := 0; d < Users; d++ {
		if err := isrt(fmt.Sprintf("ISRT dept (dname = '%s', floor = %d)", deptName(d), d%5)); err != nil {
			return err
		}
		for c := 0; c < w.coursesPer; c++ {
			if err := isrt(fmt.Sprintf("ISRT course (ctitle = '%s', credits = %d)", courseTitle(d, c), credits0)); err != nil {
				return err
			}
			for s := 0; s < w.sectionsPer; s++ {
				if err := isrt(fmt.Sprintf("ISRT section (sname = '%s', seats = %d)", sectionName(d, c, s), 20+s)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

const (
	itemPrice0 = 100
	credits0   = 3
)

func itemDept(i int) int             { return i % shopDepts }
func itemCat(i int) int              { return (i / shopDepts) % shopCats }
func itemQty(i int) int              { return i%7 + 1 }
func itemName(i int) string          { return fmt.Sprintf("item-%06d", i) }
func deptName(d int) string          { return fmt.Sprintf("D%02d", d) }
func courseTitle(d, c int) string    { return fmt.Sprintf("C%02d-%02d", d, c) }
func sectionName(d, c, s int) string { return fmt.Sprintf("S%02d-%02d-%02d", d, c, s) }

func (w *fiveLang) newUser(u int, rng *rand.Rand) generator {
	return &fiveLangUser{w: w, u: u, rng: rng,
		credits: make(map[int]int64), price: make(map[int]int64), school: make(map[int]int64)}
}

// fiveLangUser generates one user's operations, cycling through the five
// languages. In each language three in ten operations are the heavy kind (a
// navigation chain, a non-key scan, an aggregate or a broadcast retrieve),
// one in ten updates in place, the rest are keyed reads.
type fiveLangUser struct {
	w   *fiveLang
	u   int
	rng *rand.Rand
	n   int

	credits map[int]int64 // university course index -> credits this user set
	price   map[int]int64 // shop item id -> price this user set
	school  map[int]int64 // school course index in the user's dept -> credits
}

var fiveLangOrder = []string{langDaplex, langDML, langABDL, langSQL, langDLI}

func (g *fiveLangUser) next() *op {
	lang := fiveLangOrder[g.n%len(fiveLangOrder)]
	// The kind comes from the position in the stream, not from the seed, so
	// that every run has the same mix; the seed draws the keys.
	kind := "point"
	switch r := (g.n/len(fiveLangOrder) + g.u) % 10; {
	case r == 0:
		kind = "update"
	case r <= 3:
		kind = "heavy"
	}
	g.n++
	var o *op
	switch lang {
	case langDaplex:
		o = g.daplex(kind)
	case langDML:
		o = g.codasyl(kind)
	case langABDL:
		o = g.abdl(kind)
	case langSQL:
		o = g.sql(kind)
	default:
		o = g.dli(kind)
	}
	o.kind = lang + "." + kind
	return o
}

// ownCourse draws one of the user's University courses. Index 0 is left out:
// its title is the thesis's "Advanced Database", not "Course 000".
func (g *fiveLangUser) ownCourse() int {
	per := g.w.univ.Courses / Users
	return (1+g.rng.Intn(per-1))*Users + g.u
}

func (g *fiveLangUser) courseCredits(c int) int64 {
	if v, ok := g.credits[c]; ok {
		return v
	}
	return int64(2 + c%4)
}

// newCredits draws a credits value to write.
func (g *fiveLangUser) newCredits() int64 { return int64(1 + g.rng.Intn(9)) }

// fieldLine is how KFS lays one "item = value" line out, for CODASYL GET
// and DL/I replies.
func fieldLine(name, value string) string { return fmt.Sprintf("\n    %-16s = %s", name, value) }

func wantContains(r string, parts ...string) error {
	for _, p := range parts {
		if !strings.Contains(r, p) {
			return fmt.Errorf("reply %q lacks %q", r, p)
		}
	}
	return nil
}

func wantLines(r string, n int) error {
	if got := strings.Count(r, "\n") + 1; got != n {
		return fmt.Errorf("reply has %d lines, want %d: %q", got, n, r)
	}
	return nil
}

func one(lang, text string, check func(string) error) *op {
	return &op{stmts: []stmt{{lang: lang, text: text, check: check}}}
}

// --- Daplex on the functional database ---------------------------------------

func (g *fiveLangUser) daplex(kind string) *op {
	switch kind {
	case "update":
		c, v := g.ownCourse(), g.newCredits()
		o := one(langDaplex, fmt.Sprintf("LET credits OF course WHERE title = '%s' BE %d;", univgen.CourseTitle(c), v),
			func(r string) error { return wantContains(r, "ok") })
		o.applied = func() { g.credits[c] = v }
		return o
	case "heavy":
		// A FOR EACH over a non-key attribute: the faculty on one salary step.
		k := g.rng.Intn(20)
		var names []string
		for i := k; i < g.w.univ.Faculty; i += 20 {
			names = append(names, fmt.Sprintf("'Faculty %03d'", i))
		}
		return one(langDaplex, fmt.Sprintf("FOR EACH faculty WHERE salary = %d PRINT pname;", 50000+1000*k),
			func(r string) error {
				if err := wantLines(r, 2+len(names)); err != nil {
					return err
				}
				return wantContains(r, names...)
			})
	}
	c := g.ownCourse()
	title, credits := quoted(univgen.CourseTitle(c)), itoa(g.courseCredits(c))
	return one(langDaplex, fmt.Sprintf("FOR EACH course WHERE title = %s PRINT title, credits;", title),
		func(r string) error {
			if err := wantLines(r, 3); err != nil {
				return err
			}
			row := strings.Fields(r[strings.LastIndexByte(r, '\n')+1:])
			if len(row) < 2 || row[1] != credits {
				return fmt.Errorf("credits %v, want %s", row, credits)
			}
			return wantContains(r, title)
		})
}

// --- CODASYL-DML on the same functional database (the cross-model path) ------

func (g *fiveLangUser) findCourse(c int) []stmt {
	return []stmt{
		{lang: langDML, text: fmt.Sprintf("MOVE '%s' TO title IN course", univgen.CourseTitle(c))},
		{lang: langDML, text: "FIND ANY course USING title IN course",
			check: func(r string) error { return wantContains(r, "current course (key ") }},
	}
}

func (g *fiveLangUser) codasyl(kind string) *op {
	switch kind {
	case "update":
		c, v := g.ownCourse(), g.newCredits()
		stmts := append(g.findCourse(c),
			stmt{lang: langDML, text: fmt.Sprintf("MOVE %d TO credits IN course", v)},
			stmt{lang: langDML, text: "MODIFY credits IN course"})
		return &op{stmts: stmts, applied: func() { g.credits[c] = v }}
	case "heavy":
		// A set walk: a department's first two faculty members through the
		// dept set, then back to the owner.
		d := 3 + g.rng.Intn(g.w.univ.Departments-3) // 0..2 carry the majors' names
		dname := fmt.Sprintf("Department %02d", d)
		rank := fieldLine("rank", quoted(univgen.Ranks[d%len(univgen.Ranks)]))
		var firstKey int
		keyOf := func(r string) (int, error) {
			i := strings.Index(r, "current faculty (key ")
			if i < 0 {
				return 0, fmt.Errorf("reply %q finds no faculty", r)
			}
			return atoi(strings.TrimSuffix(r[i+len("current faculty (key "):], ")"))
		}
		return &op{stmts: []stmt{
			{lang: langDML, text: fmt.Sprintf("MOVE '%s' TO dname IN department", dname)},
			{lang: langDML, text: "FIND ANY department USING dname IN department",
				check: func(r string) error { return wantContains(r, "current department (key ") }},
			{lang: langDML, text: "FIND FIRST faculty WITHIN dept", check: func(r string) (err error) {
				firstKey, err = keyOf(r)
				return err
			}},
			{lang: langDML, text: "GET rank IN faculty", check: func(r string) error { return wantContains(r, rank) }},
			{lang: langDML, text: "FIND NEXT faculty WITHIN dept", check: func(r string) error {
				next, err := keyOf(r)
				if err == nil && next <= firstKey {
					err = fmt.Errorf("FIND NEXT went from key %d to %d", firstKey, next)
				}
				return err
			}},
			{lang: langDML, text: "GET rank IN faculty", check: func(r string) error { return wantContains(r, rank) }},
			{lang: langDML, text: "FIND OWNER WITHIN dept",
				check: func(r string) error { return wantContains(r, "current department (key ") }},
			{lang: langDML, text: "GET dname IN department",
				check: func(r string) error { return wantContains(r, fieldLine("dname", quoted(dname))) }},
		}}
	}
	c := g.ownCourse()
	want := []string{
		fieldLine("title", quoted(univgen.CourseTitle(c))),
		fieldLine("semester", quoted(univgen.Semesters[c%len(univgen.Semesters)])),
		fieldLine("credits", itoa(g.courseCredits(c))),
	}
	return &op{stmts: append(g.findCourse(c), stmt{lang: langDML, text: "GET course",
		check: func(r string) error { return wantContains(r, want...) }})}
}

// --- ABDL, the kernel language, on the same database ----------------------------

func (g *fiveLangUser) abdl(kind string) *op {
	switch kind {
	case "update":
		c, v := g.ownCourse(), g.newCredits()
		o := one(langABDL, fmt.Sprintf("UPDATE ((FILE = course) AND (title = '%s')) (credits = %d)", univgen.CourseTitle(c), v),
			func(r string) error { return wantContains(r, ": 1 record(s) affected") })
		o.applied = func() { g.credits[c] = v }
		return o
	case "heavy":
		if g.rng.Intn(2) == 0 {
			// A broadcast aggregate: every backend counts its share.
			s := g.rng.Intn(len(univgen.Semesters))
			n := (g.w.univ.Courses - s + len(univgen.Semesters) - 1) / len(univgen.Semesters)
			return one(langABDL, fmt.Sprintf("RETRIEVE ((FILE = course) AND (semester = '%s')) (COUNT(title))", univgen.Semesters[s]),
				func(r string) error { return wantContains(r, fmt.Sprintf("COUNT(title)=%d", n)) })
		}
		// A broadcast retrieve with a result of a few dozen records.
		k := g.rng.Intn(len(univgen.Ranks))
		n := (g.w.univ.Faculty - k + len(univgen.Ranks) - 1) / len(univgen.Ranks)
		mark := fmt.Sprintf("<rank, '%s'>", univgen.Ranks[k])
		return one(langABDL, fmt.Sprintf("RETRIEVE ((FILE = faculty) AND (rank = '%s')) (rank, dept)", univgen.Ranks[k]),
			func(r string) error {
				if err := wantLines(r, n); err != nil {
					return err
				}
				if got := strings.Count(r, mark); got != n {
					return fmt.Errorf("%d records carry %s, want %d", got, mark, n)
				}
				return nil
			})
	}
	c := g.ownCourse()
	want := fmt.Sprintf("(<title, '%s'>, <credits, %d>)", univgen.CourseTitle(c), g.courseCredits(c))
	return one(langABDL, fmt.Sprintf("RETRIEVE ((FILE = course) AND (title = '%s')) (title, credits)", univgen.CourseTitle(c)),
		func(r string) error {
			if err := wantLines(r, 1); err != nil {
				return err
			}
			return wantContains(r, want)
		})
}

// --- SQL on the relational database -------------------------------------------

func (g *fiveLangUser) ownItem() int { return g.rng.Intn(g.w.items/Users)*Users + g.u }

func (g *fiveLangUser) itemPrice(id int) int64 {
	if v, ok := g.price[id]; ok {
		return v
	}
	return itemPrice0
}

func (g *fiveLangUser) sql(kind string) *op {
	switch kind {
	case "update":
		id, v := g.ownItem(), int64(1+g.rng.Intn(100_000))
		o := one(langSQL, fmt.Sprintf("UPDATE item SET price = %d WHERE id = %d", v, id),
			func(r string) error { return wantAffected(r, 1) })
		o.applied = func() { g.price[id] = v }
		return o
	case "heavy":
		// A GROUP BY aggregate over one department's rows (items/shopDepts
		// of them) on columns no update touches.
		d := g.rng.Intn(shopDepts)
		count, sum := make([]int, shopCats), make([]int, shopCats)
		for id := d; id < g.w.items; id += shopDepts {
			count[itemCat(id)]++
			sum[itemCat(id)] += itemQty(id)
		}
		return one(langSQL, fmt.Sprintf("SELECT cat, COUNT(*), SUM(qty) FROM item WHERE dept = %d GROUP BY cat", d),
			func(r string) error {
				rows, err := tableRows(r)
				if err != nil {
					return err
				}
				if len(rows) != shopCats {
					return fmt.Errorf("%d groups, want %d", len(rows), shopCats)
				}
				for _, row := range rows {
					cat, err := atoi(row[0])
					if err != nil || cat < 0 || cat >= shopCats || len(row) != 3 {
						return fmt.Errorf("group row %v", row)
					}
					if err := sameCells(row[1:], []string{itoa(int64(count[cat])), itoa(int64(sum[cat]))}); err != nil {
						return fmt.Errorf("dept %d cat %d: %w", d, cat, err)
					}
				}
				return nil
			})
	}
	id := g.ownItem()
	want := []string{itoa(int64(id)), quoted(itemName(id)), itoa(g.itemPrice(id))}
	return one(langSQL, fmt.Sprintf("SELECT id, name, price FROM item WHERE id = %d", id),
		func(r string) error { return wantRow(r, want...) })
}

// --- DL/I on the hierarchical database ------------------------------------------

func (g *fiveLangUser) schoolCredits(c int) int64 {
	if v, ok := g.school[c]; ok {
		return v
	}
	return credits0
}

func guCourse(d, c int) string {
	return fmt.Sprintf("GU dept (dname = '%s') course (ctitle = '%s')", deptName(d), courseTitle(d, c))
}

func (g *fiveLangUser) dli(kind string) *op {
	c := g.rng.Intn(g.w.coursesPer)
	course := func(d, c int, credits int64) func(string) error {
		return func(r string) error {
			return wantContains(r, "ok course (key ", fieldLine("ctitle", quoted(courseTitle(d, c))), fieldLine("credits", itoa(credits)))
		}
	}
	section := func(d, c, s int) func(string) error {
		return func(r string) error {
			return wantContains(r, "ok section (key ", fieldLine("sname", quoted(sectionName(d, c, s))), fieldLine("seats", itoa(int64(20+s))))
		}
	}
	switch kind {
	case "update":
		v := g.newCredits()
		return &op{stmts: []stmt{
			// The GU's reply is checked for position only: the operation must
			// stay correct when it is run again (the traced run does that).
			{lang: langDLI, text: guCourse(g.u, c), check: func(r string) error {
				return wantContains(r, "ok course (key ", fieldLine("ctitle", quoted(courseTitle(g.u, c))))
			}},
			{lang: langDLI, text: fmt.Sprintf("REPL (credits = %d)", v), check: course(g.u, c, v)},
		}, applied: func() { g.school[c] = v }}
	case "heavy":
		if g.rng.Intn(2) == 0 {
			// GU then GN: the first two sections under one course, in
			// hierarchic order. Sections are never updated, so any
			// department will do.
			d := g.rng.Intn(Users)
			return &op{stmts: []stmt{
				{lang: langDLI, text: guCourse(d, c), check: func(r string) error { return wantContains(r, "ok course (key ") }},
				{lang: langDLI, text: "GN section", check: section(d, c, 0)},
				{lang: langDLI, text: "GN section", check: section(d, c, 1)},
			}}
		}
		// GU the user's department, then GNP through its first two courses.
		return &op{stmts: []stmt{
			{lang: langDLI, text: fmt.Sprintf("GU dept (dname = '%s')", deptName(g.u)),
				check: func(r string) error {
					return wantContains(r, "ok dept (key ", fieldLine("dname", quoted(deptName(g.u))))
				}},
			{lang: langDLI, text: "GNP course", check: course(g.u, 0, g.schoolCredits(0))},
			{lang: langDLI, text: "GNP course", check: course(g.u, 1, g.schoolCredits(1))},
		}}
	}
	return one(langDLI, guCourse(g.u, c), course(g.u, c, g.schoolCredits(c)))
}
