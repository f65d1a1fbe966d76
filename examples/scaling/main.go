// Scaling: demonstrates the two MBDS performance claims on the University
// database — response time falls near-reciprocally as backends are added at
// fixed database size, and stays invariant when the database grows
// proportionally with the backends.
package main

import (
	"fmt"
	"log"
	"time"

	"mlds"
)

func main() {
	fmt.Println("MBDS claim 1: fixed database, growing backends (reciprocal decrease)")
	fmt.Printf("%-10s %-14s %s\n", "backends", "response", "speedup vs 1")
	var base time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		rt := responseTime(n, 1)
		if n == 1 {
			base = rt
		}
		fmt.Printf("%-10d %-14v %.2fx\n", n, rt, float64(base)/float64(rt))
	}

	fmt.Println("\nMBDS claim 2: database grows with backends (invariant response)")
	fmt.Printf("%-10s %-12s %s\n", "backends", "db scale", "response")
	for _, n := range []int{1, 2, 4, 8} {
		rt := responseTime(n, n)
		fmt.Printf("%-10d %-12s %v\n", n, fmt.Sprintf("%dx", n), rt)
	}
}

// responseTime loads a University instance scaled by dbScale into a kernel
// with n backends and measures the simulated response time of one broad
// retrieval.
func responseTime(n, dbScale int) time.Duration {
	sys := mlds.New(mlds.KernelWith(n))
	defer sys.Close()
	db, err := sys.CreateFunctional("university", mlds.UniversityDDL)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mlds.SmallUniversity()
	cfg.Students *= 24 * dbScale
	cfg.Faculty *= 8 * dbScale
	cfg.Courses *= 8 * dbScale
	if _, err := mlds.PopulateUniversity(db, cfg); err != nil {
		log.Fatal(err)
	}
	before := mlds.SimTime(db)
	if _, err := db.ExecABDL("RETRIEVE ((FILE = student) AND (major = 'Computer Science')) (gpa)"); err != nil {
		log.Fatal(err)
	}
	return mlds.SimTime(db) - before
}
