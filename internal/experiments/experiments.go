// Package experiments regenerates every figure and table of the paper's
// evaluation-relevant content: the schema figures (2.1, 3.3, 5.1–5.5), the
// Chapter VI worked translations, the two MBDS performance claims, and the
// cross-model goal. The command mldsbench prints these reports; the
// top-level benchmarks time their workloads; EXPERIMENTS.md records
// paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"

	"mlds/internal/daplex"
	"mlds/internal/funcmodel"
	"mlds/internal/netddl"
	"mlds/internal/netmodel"
	"mlds/internal/univ"
	"mlds/internal/xform"
)

// mustUniv parses the embedded University schema.
func mustUniv() *funcmodel.Schema { return univ.Schema() }

// reparse round-trips network DDL text (the two-step preprocessing path).
func reparse(ddl string) (*netmodel.Schema, error) { return netddl.Parse(ddl) }

// Report is one experiment's regenerated artifact.
type Report struct {
	ID    string
	Title string
	Body  string
	OK    bool
}

func (r *Report) String() string {
	status := "OK"
	if !r.OK {
		status = "MISMATCH"
	}
	return fmt.Sprintf("=== %s: %s [%s] ===\n%s", r.ID, r.Title, status, r.Body)
}

// Experiment names one report and the function that regenerates it.
type Experiment struct {
	ID  string
	Run func() *Report
}

// All lists every experiment in the order a full run prints them.
var All = []Experiment{
	{"E1", E1SchemaParse},
	{"E2", E2Transform},
	{"E3", E3ABMapping},
	{"E4", E4EntitySubtypeGoldens},
	{"E5", E5Translations},
	{"E6", E6BackendsScaling},
	{"E7", E7CapacityGrowth},
	{"E8", E8CrossModel},
	{"E9", E9SharedKernel},
	{"E10", E10FiveInterfaces},
	{"A1", AblationIndexVsScan},
	{"A3", AblationDirectVsPreprocess},
}

func report(id, title string, ok bool, body string) *Report {
	return &Report{ID: id, Title: title, Body: body, OK: ok}
}

func failf(id, title, format string, args ...any) *Report {
	return report(id, title, false, fmt.Sprintf(format, args...))
}

// E1SchemaParse regenerates Figure 2.1: the University functional schema.
func E1SchemaParse() *Report {
	const id, title = "E1", "Figure 2.1 — University functional schema (Daplex)"
	s, err := daplex.ParseSchema(univ.SchemaDDL)
	if err != nil {
		return failf(id, title, "parse: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s)
	for _, e := range s.Entities {
		fmt.Fprintf(&b, "  entity  %-14s %d functions\n", e.Name, len(e.Functions))
	}
	for _, st := range s.Subtypes {
		fmt.Fprintf(&b, "  subtype %-14s of %v, %d functions\n", st.Name, st.Supertypes, len(st.Functions))
	}
	for _, u := range s.Uniques {
		fmt.Fprintf(&b, "  UNIQUE %v WITHIN %s\n", u.Functions, u.Within)
	}
	for _, o := range s.Overlaps {
		fmt.Fprintf(&b, "  OVERLAP %v WITH %v\n", o.Left, o.Right)
	}
	ok := len(s.Entities) == 3 && len(s.Subtypes) == 4 && len(s.Uniques) == 2 && len(s.Overlaps) == 1
	return report(id, title, ok, b.String())
}

// E2Transform regenerates Figure 5.1: the functional schema transformed to a
// network schema, as CODASYL DDL.
func E2Transform() *Report {
	const id, title = "E2", "Figure 5.1 — functional schema transformed to network DDL"
	m, err := xform.FunToNet(univ.Schema())
	if err != nil {
		return failf(id, title, "transform: %v", err)
	}
	ddl := m.Net.DDL()
	// The figure's landmark clauses must all be present.
	landmarks := []string{
		"SET NAME IS supervisor;", "OWNER IS employee;", "MEMBER IS support_staff;",
		"SET NAME IS employee_support_staff;", "INSERTION IS AUTOMATIC;", "RETENTION IS FIXED;",
		"SET NAME IS teaching;", "MEMBER IS LINK_1;",
		"SET NAME IS taught_by;", "OWNER IS course;",
		"SET NAME IS dept;", "OWNER IS department;", "MEMBER IS faculty;",
		"SET NAME IS employee_faculty;",
		"SET NAME IS advisor;", "OWNER IS faculty;", "MEMBER IS student;",
		"INSERTION IS MANUAL;", "RETENTION IS OPTIONAL;", "SET SELECTION IS BY APPLICATION;",
		"DUPLICATES ARE NOT ALLOWED FOR title, semester",
	}
	ok := true
	var missing []string
	for _, l := range landmarks {
		if !strings.Contains(ddl, l) {
			ok = false
			missing = append(missing, l)
		}
	}
	body := ddl
	if len(missing) > 0 {
		body += "\nMISSING: " + strings.Join(missing, " | ")
	}
	return report(id, title, ok, body)
}

// E3ABMapping regenerates Figure 3.3: the AB(functional) University schema.
func E3ABMapping() *Report {
	const id, title = "E3", "Figure 3.3 — the AB(functional) University database schema"
	m, err := xform.FunToNet(univ.Schema())
	if err != nil {
		return failf(id, title, "transform: %v", err)
	}
	ab, err := xform.DeriveAB(m)
	if err != nil {
		return failf(id, title, "derive: %v", err)
	}
	body := ab.Describe()
	ok := strings.Contains(body, "(<FILE, student>") &&
		strings.Contains(body, "<advisor, *>") &&
		strings.Contains(body, "(<FILE, LINK_1>")
	return report(id, title, ok, body)
}

// E4EntitySubtypeGoldens regenerates Figures 5.2–5.5: the entity type and
// entity subtype declarations and their network representations.
func E4EntitySubtypeGoldens() *Report {
	const id, title = "E4", "Figures 5.2–5.5 — entity/subtype declarations and network representations"
	// A miniature schema holding exactly one entity (course) and one subtype
	// (student of person), transformed in isolation.
	src := `
DATABASE figures IS
ENTITY person IS
    pname : STRING(30);
END ENTITY;
ENTITY course IS
    title    : STRING(30);
    semester : STRING(10);
    credits  : INTEGER;
END ENTITY;
SUBTYPE student OF person IS
    major : STRING(20);
END SUBTYPE;
UNIQUE title, semester WITHIN course;
END DATABASE;
`
	fun, err := daplex.ParseSchema(src)
	if err != nil {
		return failf(id, title, "parse: %v", err)
	}
	m, err := xform.FunToNet(fun)
	if err != nil {
		return failf(id, title, "transform: %v", err)
	}
	ddl := m.Net.DDL()
	ok := strings.Contains(ddl, "RECORD NAME IS course") &&
		strings.Contains(ddl, "DUPLICATES ARE NOT ALLOWED FOR title, semester") &&
		strings.Contains(ddl, "SET NAME IS person_student;") &&
		strings.Contains(ddl, "SET NAME IS system_course;")
	return report(id, title, ok, ddl)
}
