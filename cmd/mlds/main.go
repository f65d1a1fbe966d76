// mlds is the interactive MLDS shell over a functional database: it loads
// the University database (or a user schema) and accepts statements for the
// three interfaces that serve it — CODASYL-DML by default, Daplex with a
// \daplex prefix, raw ABDL with \abdl. (Relational and hierarchical
// databases are served through the library API and examples/fivemodels.)
//
// Usage:
//
//	mlds                      start with the populated University database
//	mlds -schema my.daplex    start with a user functional schema (empty)
//	mlds -backends 8          size the kernel
//
// Shell commands:
//
//	FIND ANY course USING title IN course     CODASYL-DML statement
//	BEGIN WORK / COMMIT / ROLLBACK            transaction control (DML session)
//	\daplex FOR EACH course PRINT title;      Daplex statement
//	\abdl RETRIEVE ((FILE = course)) (title)  raw kernel request
//	\schema                                   show the transformed network DDL
//	\cit                                      show the currency indicator table
//	\quit
//
// With a transaction open the prompt changes to "mlds*>"; statements then
// accumulate locks and undo until COMMIT or ROLLBACK. Without one, every
// statement auto-commits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"mlds"
)

func main() {
	schemaFile := flag.String("schema", "", "Daplex schema file (default: built-in University, populated)")
	backends := flag.Int("backends", 4, "kernel backends per database")
	runFile := flag.String("run", "", "execute a CODASYL-DML transaction file and exit")
	flag.Parse()

	sys := mlds.New(mlds.KernelWith(*backends))
	defer sys.Close()

	ddl := mlds.UniversityDDL
	populate := true
	if *schemaFile != "" {
		data, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal(err)
		}
		ddl = string(data)
		populate = false
	}
	db, err := sys.CreateFunctional("main", ddl)
	if err != nil {
		fatal(err)
	}
	if populate {
		if _, err := mlds.PopulateUniversity(db, mlds.SmallUniversity()); err != nil {
			fatal(err)
		}
	}
	dml, err := sys.Open("main", "dml")
	if err != nil {
		fatal(err)
	}
	dap, err := sys.Open("main", "daplex")
	if err != nil {
		fatal(err)
	}

	if *runFile != "" {
		data, err := os.ReadFile(*runFile)
		if err != nil {
			fatal(err)
		}
		outs, err := mlds.RunScript(dml, string(data))
		for _, out := range outs {
			printDML(out)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("MLDS shell — functional database %q on %d backends\n", db.Name, db.Kernel.Backends())
	fmt.Println(`CODASYL-DML by default; BEGIN WORK/COMMIT/ROLLBACK; \daplex, \abdl, \schema, \cit, \quit`)
	in := bufio.NewScanner(os.Stdin)
	for {
		// The starred prompt marks an open transaction on the DML session.
		if dml.InTxn() {
			fmt.Print("mlds*> ")
		} else {
			fmt.Print("mlds> ")
		}
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\schema`:
			fmt.Println(db.Net.DDL())
		case line == `\cit`:
			fmt.Println(mlds.CIT(dml))
		case strings.HasPrefix(line, `\daplex `):
			out, err := dap.Execute(strings.TrimPrefix(line, `\daplex `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(out.Rendered)
		case strings.HasPrefix(line, `\abdl `):
			res, err := db.ExecABDL(strings.TrimPrefix(line, `\abdl `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(mlds.FormatResult(res))
		default:
			out, err := dml.Execute(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printDML(out)
		}
	}
}

// printDML shows a DML statement's ABDL requests, then its rendering.
func printDML(out *mlds.Outcome) {
	// Transaction-control verbs have no DML payload.
	if out.DML != nil {
		for _, req := range out.DML.Requests {
			fmt.Println("  ->", req)
		}
	}
	fmt.Println(out.Rendered)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlds:", err)
	os.Exit(1)
}
