// mldsbench regenerates the paper's figures, tables and claims: the schema
// figures (2.1, 3.3, 5.1–5.5), the Chapter VI translation walkthrough, the
// two MBDS performance sweeps, the cross-model equivalence checks, and the
// design-choice ablations.
//
// Usage:
//
//	mldsbench           run every experiment
//	mldsbench -exp e6   run one experiment (e1..e10, a1, a3)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlds/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (e1..e10, a1, a3)")
	flag.Parse()

	if *exp != "" {
		for _, e := range experiments.All {
			if strings.EqualFold(e.ID, *exp) {
				r := e.Run()
				fmt.Println(r)
				if !r.OK {
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "mldsbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	failed := 0
	for _, e := range experiments.All {
		r := e.Run()
		fmt.Println(r)
		fmt.Println()
		if !r.OK {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mldsbench: %d experiment(s) mismatched\n", failed)
		os.Exit(1)
	}
}
