// Crossmodel: demonstrates the Multi-Model goal — one functional database
// answering the same question through the Daplex interface and through
// CODASYL-DML transactions over the transformed schema, with identical
// results; and updates made in one model visible in the other.
package main

import (
	"fmt"
	"log"
	"sort"

	"mlds"
)

func main() {
	sys := mlds.New(mlds.DefaultConfig())
	defer sys.Close()
	db, err := sys.CreateFunctional("university", mlds.UniversityDDL)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mlds.PopulateUniversity(db, mlds.SmallUniversity()); err != nil {
		log.Fatal(err)
	}

	dap, err := sys.Open("university", "daplex")
	if err != nil {
		log.Fatal(err)
	}
	dml, err := sys.Open("university", "dml")
	if err != nil {
		log.Fatal(err)
	}

	// Question: which students major in Computer Science?
	fmt.Println("Q: students majoring in Computer Science")

	// Via Daplex.
	rows, err := dap.Execute("FOR EACH student WHERE major = 'Computer Science' PRINT pname;")
	if err != nil {
		log.Fatal(err)
	}
	var daplexNames []string
	for _, r := range rows.Rows {
		daplexNames = append(daplexNames, r.Values["pname"][0].AsString())
	}
	sort.Strings(daplexNames)
	fmt.Printf("  Daplex      : %v\n", daplexNames)

	// Via CODASYL-DML: navigate the system set, probe the ISA set, filter.
	var dmlNames []string
	mustExec(dml, "FIND FIRST person WITHIN system_person")
	for {
		out, err := dml.Execute("FIND FIRST student WITHIN person_student")
		if err != nil {
			log.Fatal(err)
		}
		if out.DML.Found {
			g := mustExec(dml, "GET major IN student")
			if g.DML.Values["major"].AsString() == "Computer Science" {
				mustExec(dml, "FIND OWNER WITHIN person_student")
				n := mustExec(dml, "GET pname IN person")
				dmlNames = append(dmlNames, n.DML.Values["pname"].AsString())
			}
		}
		if nxt := mustExec(dml, "FIND NEXT person WITHIN system_person"); nxt.DML.EndOfSet {
			break
		}
	}
	sort.Strings(dmlNames)
	fmt.Printf("  CODASYL-DML : %v\n", dmlNames)

	equal := len(daplexNames) == len(dmlNames)
	for i := range daplexNames {
		if !equal || daplexNames[i] != dmlNames[i] {
			equal = false
			break
		}
	}
	fmt.Printf("  results equal: %v\n\n", equal)

	// Cross-model update: Daplex LET, seen by DML GET.
	fmt.Println("Cross-model update visibility")
	if _, err := dap.Execute("LET credits OF course WHERE title = 'Advanced Database' BE 9;"); err != nil {
		log.Fatal(err)
	}
	mustExec(dml, "MOVE 'Advanced Database' TO title IN course")
	mustExec(dml, "FIND ANY course USING title IN course")
	out := mustExec(dml, "GET credits IN course")
	fmt.Printf("  Daplex LET credits := 9 → DML GET sees credits = %s\n", out.DML.Values["credits"])

	// And back: DML MODIFY, seen by Daplex.
	mustExec(dml, "MOVE 4 TO credits IN course")
	mustExec(dml, "MODIFY credits IN course")
	rows, err = dap.Execute("FOR EACH course WHERE title = 'Advanced Database' PRINT credits;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  DML MODIFY credits := 4 → Daplex sees credits = %s\n", rows.Rows[0].Values["credits"][0])
}

func mustExec(sess mlds.Session, stmt string) *mlds.Outcome {
	out, err := sess.Execute(stmt)
	if err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
	return out
}
