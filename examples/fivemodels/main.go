// Fivemodels: the complete MLDS of Figure 1.2 — one system serving all five
// data models via their model-based data languages: hierarchical/DL-I,
// relational/SQL, network/CODASYL-DML, functional/Daplex, and the
// attribute-based kernel language ABDL.
package main

import (
	"fmt"
	"log"

	"mlds"
)

func main() {
	sys := mlds.New(mlds.KernelWith(2))
	defer sys.Close()

	// 1. Functional / Daplex (and, via the schema transformer, CODASYL-DML).
	fmt.Println("== functional / Daplex ==")
	fdb, err := sys.CreateFunctional("university", mlds.UniversityDDL)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mlds.PopulateUniversity(fdb, mlds.SmallUniversity()); err != nil {
		log.Fatal(err)
	}
	dap, _ := sys.Open("university", "daplex")
	rows, err := dap.Execute("FOR EACH department PRINT dname;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mlds.FormatRows(rows.Rows, []string{"dname"}))

	// 2. Network / CODASYL-DML on the same functional database (the thesis).
	fmt.Println("\n== network / CODASYL-DML (on the functional database) ==")
	dml, _ := sys.Open("university", "dml")
	must := func(stmt string) *mlds.Outcome {
		out, err := dml.Execute(stmt)
		if err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
		return out
	}
	must("MOVE 'Advanced Database' TO title IN course")
	must("FIND ANY course USING title IN course")
	fmt.Println(must("GET course").Rendered)

	// 3. Relational / SQL.
	fmt.Println("\n== relational / SQL ==")
	if _, err := sys.CreateRelational("shop", `
CREATE TABLE emp (
    ename CHAR(20) NOT NULL,
    dept  CHAR(10),
    pay   INTEGER
);`); err != nil {
		log.Fatal(err)
	}
	sqlSess, _ := sys.Open("shop", "sql")
	for _, stmt := range []string{
		"INSERT INTO emp (ename, dept, pay) VALUES ('Ann', 'CS', 900)",
		"INSERT INTO emp (ename, dept, pay) VALUES ('Bob', 'CS', 800)",
		"INSERT INTO emp (ename, dept, pay) VALUES ('Cey', 'EE', 950)",
	} {
		if _, err := sqlSess.Execute(stmt); err != nil {
			log.Fatal(err)
		}
	}
	rs, err := sqlSess.Execute("SELECT dept, COUNT(*), AVG(pay) FROM emp GROUP BY dept")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rs.SQL.Columns)
	for _, row := range rs.SQL.Rows {
		fmt.Println(row)
	}

	// 4. Hierarchical / DL-I.
	fmt.Println("\n== hierarchical / DL-I ==")
	if _, err := sys.CreateHierarchical("school", `
DBD NAME IS school
SEGMENT NAME IS dept
    FIELD dname CHAR 20
SEGMENT NAME IS course PARENT IS dept
    FIELD title CHAR 30
`); err != nil {
		log.Fatal(err)
	}
	dliSess, _ := sys.Open("school", "dli")
	for _, call := range []string{
		"ISRT dept (dname = 'CS')",
		"ISRT course (title = 'DB')",
		"ISRT course (title = 'OS')",
	} {
		if _, err := dliSess.Execute(call); err != nil {
			log.Fatal(err)
		}
	}
	out, err := dliSess.Execute("GU dept (dname = 'CS') course (title = 'OS')")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GU found %s #%d: title = %s\n", out.DLI.Segment, out.DLI.Key, out.DLI.Values["title"])

	// 5. Attribute-based / ABDL: the kernel language, direct.
	fmt.Println("\n== attribute-based / ABDL (the kernel) ==")
	res, err := fdb.ExecABDL("RETRIEVE ((FILE = course)) (COUNT(title), AVG(credits))")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mlds.FormatResult(res))
}
