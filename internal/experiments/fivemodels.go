package experiments

import (
	"fmt"
	"strings"

	"mlds/internal/core"
	"mlds/internal/mbds"
	"mlds/internal/univ"
)

// E10FiveInterfaces regenerates Figure 1.2: one MLDS serving all five data
// models via their model-based data languages — hierarchical/DL-I,
// relational/SQL, network/CODASYL-DML, functional/Daplex, and the
// attribute-based kernel language.
func E10FiveInterfaces() *Report {
	const id, title = "E10", "Figure 1.2 — five language interfaces over one MLDS"
	sys := core.NewSystem(core.Config{Kernel: mbds.DefaultConfig(2)})
	defer sys.Close()
	var b strings.Builder
	ok := true
	check := func(label string, err error) bool {
		if err != nil {
			ok = false
			fmt.Fprintf(&b, "%-22s FAILED: %v\n", label, err)
			return false
		}
		return true
	}

	// Functional / Daplex.
	fdb, err := sys.CreateFunctional("university", univ.SchemaDDL)
	if !check("create functional", err) {
		return report(id, title, false, b.String())
	}
	dap, _ := sys.Open("university", "daplex")
	if _, err := dap.Execute("CREATE department (dname := 'History', building := 'Hall H');"); check("daplex CREATE", err) {
		rows, err := dap.Execute("FOR EACH department PRINT dname;")
		if check("daplex FOR EACH", err) {
			fmt.Fprintf(&b, "%-22s %d departments via Daplex\n", "functional/Daplex", len(rows.Rows))
		}
	}

	// Network / CODASYL-DML on the same functional database.
	dml, _ := sys.Open("university", "dml")
	for _, stmt := range []string{
		"MOVE 'History' TO dname IN department",
		"FIND ANY department USING dname IN department",
		"GET dname IN department",
	} {
		out, err := dml.Execute(stmt)
		if !check("codasyl "+stmt, err) {
			break
		}
		if v, okv := out.DML.Values["dname"]; okv {
			fmt.Fprintf(&b, "%-22s GET dname = %s (on the functional database)\n", "network/CODASYL-DML", v)
		}
	}

	// Relational / SQL.
	_, err = sys.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20) NOT NULL, pay INTEGER);")
	if check("create relational", err) {
		sq, _ := sys.Open("shop", "sql")
		_, err = sq.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)")
		if check("sql INSERT", err) {
			rs, err := sq.Execute("SELECT COUNT(*) FROM emp")
			if check("sql SELECT", err) {
				fmt.Fprintf(&b, "%-22s COUNT(*) = %s\n", "relational/SQL", rs.SQL.Rows[0][0])
			}
		}
	}

	// Hierarchical / DL-I.
	_, err = sys.CreateHierarchical("school", "DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\nSEGMENT NAME IS course PARENT IS dept\n    FIELD ctitle CHAR 30\n")
	if check("create hierarchical", err) {
		dl, _ := sys.Open("school", "dli")
		for _, call := range []string{
			"ISRT dept (dname = 'CS')",
			"ISRT course (ctitle = 'DB')",
		} {
			if _, err := dl.Execute(call); !check("dli "+call, err) {
				break
			}
		}
		out, err := dl.Execute("GU dept (dname = 'CS') course (ctitle = 'DB')")
		if check("dli GU", err) {
			if out.DLI.Status != "" {
				ok = false
				fmt.Fprintf(&b, "dli GU status %q\n", out.DLI.Status)
			} else {
				fmt.Fprintf(&b, "%-22s GU course ctitle = %s\n", "hierarchical/DL-I", out.DLI.Values["ctitle"])
			}
		}
	}

	// Attribute-based / ABDL: the kernel language, direct.
	res, err := fdb.ExecABDL("RETRIEVE ((FILE = department)) (COUNT(dname))")
	if check("abdl RETRIEVE", err) {
		fmt.Fprintf(&b, "%-22s COUNT(dname) = %s\n", "attribute-based/ABDL", res.Groups[0].Aggs[0].Val)
	}
	return report(id, title, ok, b.String())
}
