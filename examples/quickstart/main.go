// Quickstart: define a functional database in Daplex, load it, and access it
// through all three MLDS language interfaces — CODASYL-DML (via the schema
// transformer), Daplex, and raw ABDL.
package main

import (
	"fmt"
	"log"

	"mlds"
)

func main() {
	sys := mlds.New(mlds.DefaultConfig())
	defer sys.Close()

	// Define the University database (Shipman's schema, Figure 2.1) and
	// load a small deterministic instance.
	db, err := sys.CreateFunctional("university", mlds.UniversityDDL)
	if err != nil {
		log.Fatal(err)
	}
	n, err := mlds.PopulateUniversity(db, mlds.SmallUniversity())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d kernel records into %d backends\n\n", n, db.Kernel.Backends())

	// 1. CODASYL-DML on the functional database: the thesis's contribution.
	fmt.Println("== CODASYL-DML interface ==")
	dml, err := sys.Open("university", "dml")
	if err != nil {
		log.Fatal(err)
	}
	for _, stmt := range []string{
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
		"GET course",
	} {
		out, err := dml.Execute(stmt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out.Rendered)
	}

	// 2. Daplex on the same database.
	fmt.Println("\n== Daplex interface ==")
	dap, err := sys.Open("university", "daplex")
	if err != nil {
		log.Fatal(err)
	}
	rows, err := dap.Execute("FOR EACH student WHERE major = 'Computer Science' PRINT pname, gpa;")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mlds.FormatRows(rows.Rows, []string{"pname", "gpa"}))

	// 3. Raw ABDL: the kernel data language.
	fmt.Println("\n== ABDL (kernel) interface ==")
	res, err := db.ExecABDL("RETRIEVE ((FILE = course)) (COUNT(title), AVG(credits))")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mlds.FormatResult(res))
}
