// University: runs the thesis's Chapter VI worked transactions against the
// transformed University database, printing each CODASYL-DML statement, the
// ABDL requests the kernel mapping system generated for it, and the result —
// the translation walkthrough of the thesis, executable.
package main

import (
	"fmt"
	"log"

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
	dml, err := sys.Open("university", "dml")
	if err != nil {
		log.Fatal(err)
	}

	run := func(title string, stmts ...string) {
		fmt.Printf("\n--- %s ---\n", title)
		for _, s := range stmts {
			out, err := dml.Execute(s)
			if err != nil {
				fmt.Printf("  %s\n    !! aborted: %v\n", s, err)
				continue
			}
			fmt.Printf("  %s\n", s)
			for _, req := range out.DML.Requests {
				fmt.Printf("    -> %s\n", req)
			}
			switch {
			case out.DML.EndOfSet:
				fmt.Printf("    == END-OF-SET\n")
			case len(out.DML.Values) > 0:
				fmt.Printf("    == %s\n", out.Rendered)
			case out.DML.Found:
				fmt.Printf("    == current %s (key %d)\n", out.DML.Record, out.DML.Key)
			}
		}
	}

	// VI.B.1 — FIND ANY: find any course record whose title is 'Advanced
	// Database' (the thesis's example, verbatim).
	run("FIND ANY (VI.B.1)",
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
		"GET course",
	)

	// VI.B.4 — FIND FIRST/NEXT: locate students of a faculty's advisor set.
	run("FIND FIRST/NEXT (VI.B.4)",
		"MOVE 'Faculty 000' TO pname IN person",
		"FIND ANY person USING pname IN person",
		"FIND FIRST employee WITHIN person_employee",
		"FIND FIRST faculty WITHIN employee_faculty",
		"FIND FIRST student WITHIN advisor",
		"GET major IN student",
		"FIND NEXT student WITHIN advisor",
		"FIND NEXT student WITHIN advisor",
		"FIND NEXT student WITHIN advisor",
	)

	// VI.B.5 — FIND OWNER: the advisor of a student.
	run("FIND OWNER (VI.B.5)",
		"MOVE 'Student 0001' TO pname IN person",
		"FIND ANY person USING pname IN person",
		"FIND FIRST student WITHIN person_student",
		"FIND OWNER WITHIN advisor",
		"GET rank IN faculty",
	)

	// VI.G — STORE: create a person, then a student record for the same
	// entity (automatic ISA insertion shares the key).
	run("STORE (VI.G)",
		"MOVE 'Harry Coker' TO pname IN person",
		"MOVE 198706001 TO ssn IN person",
		"STORE person",
		"MOVE 'Computer Science' TO major IN student",
		"MOVE 3.8 TO gpa IN student",
		"STORE student",
	)

	// VI.D — CONNECT: give the new student an advisor.
	run("CONNECT (VI.D)",
		"MOVE 'Faculty 001' TO pname IN person",
		"FIND ANY person USING pname IN person",
		"FIND FIRST employee WITHIN person_employee",
		"FIND FIRST faculty WITHIN employee_faculty",
		"MOVE 'Harry Coker' TO pname IN person",
		"FIND ANY person USING pname IN person",
		"FIND FIRST student WITHIN person_student",
		"CONNECT student TO advisor",
		"FIND OWNER WITHIN advisor",
		"GET pname IN person",
	)

	// VI.F — MODIFY: change the course's credits.
	run("MODIFY (VI.F)",
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
		"MOVE 5 TO credits IN course",
		"MODIFY credits IN course",
		"GET credits IN course",
	)

	// VI.E — DISCONNECT: remove the student's advisor again.
	run("DISCONNECT (VI.E)",
		"MOVE 'Harry Coker' TO pname IN person",
		"FIND ANY person USING pname IN person",
		"FIND FIRST student WITHIN person_student",
		"DISCONNECT student FROM advisor",
	)

	// VI.H — ERASE: a referenced course aborts; ERASE ALL is not translated.
	run("ERASE constraints (VI.H)",
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
		"ERASE course",
		"ERASE ALL course",
	)

	// A PERFORM loop, the thesis's Chapter VI.B.4 shape: list CS students.
	fmt.Println("\n--- PERFORM loop: Computer Science students ---")
	outs, err := mlds.RunScript(dml, `
FIND FIRST person WITHIN system_person
PERFORM UNTIL END-OF-SET
    FIND FIRST student WITHIN person_student
    FIND NEXT person WITHIN system_person
END-PERFORM
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  executed %d statements across the loop\n", len(outs))
}
