// mldsbench regenerates the paper's figures, tables and claims: the schema
// figures (2.1, 3.3, 5.1–5.5), the Chapter VI translation walkthrough, the
// two MBDS performance sweeps, the cross-model equivalence check, the
// transaction subsystem's group-commit economics, and the design-choice
// ablations.
//
// Usage:
//
//	mldsbench                     run every experiment
//	mldsbench -exp e6             run one experiment (e1..e19, a1..a3)
//	mldsbench -txn                run the transaction contention workload
//	mldsbench -txn -sessions 16 -txns 50 -ops 4 -conflict 0.25
//	mldsbench -readers 8 -writers 4   reader/writer mix, locked vs MVCC (E14)
//	mldsbench -elastic            grow/drain one live fleet under writes (E15)
//	mldsbench -net                serve >=1000 remote sessions over TCP (E16)
//	mldsbench -net -sessions 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlds/internal/experiments"
)

// emit prints one report, exiting non-zero on a mismatch.
func emit(r *experiments.Report) {
	fmt.Println(r)
	if !r.OK {
		os.Exit(1)
	}
}

// sessionsSet reports whether -sessions was given explicitly on the command
// line, so -net can default to E16's thousand-session scale while still
// honouring an explicit override.
func sessionsSet(int) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sessions" {
			set = true
		}
	})
	return set
}

func main() {
	exp := flag.String("exp", "", "run a single experiment (e1..e19, a1..a3)")
	txnMode := flag.Bool("txn", false, "run the mixed read/write transaction contention workload")
	sessions := flag.Int("sessions", 8, "-txn: concurrent sessions")
	txns := flag.Int("txns", 25, "-txn: transactions per session")
	ops := flag.Int("ops", 3, "-txn: read-modify-write operations per transaction")
	conflict := flag.Float64("conflict", 0.5, "-txn: probability an operation hits the shared hot record")
	readers := flag.Int("readers", 0, "reader/writer mix: read-only sessions (runs E14 at this scale)")
	writers := flag.Int("writers", 0, "reader/writer mix: read-modify-write sessions")
	elastic := flag.Bool("elastic", false, "grow and drain one live fleet under a write workload (E15)")
	netMode := flag.Bool("net", false, "serve concurrent remote sessions over TCP through cmd/mldsserver's tier (E16)")
	flag.Parse()

	if *netMode {
		n := 0 // E16 default: 1000 concurrent sessions
		if sessionsSet(*sessions) {
			n = *sessions
		}
		emit(experiments.Timed(func() *experiments.Report {
			return experiments.E16NetServing(n)
		}))
		return
	}

	if *elastic {
		emit(experiments.Timed(experiments.E15ElasticScaling))
		return
	}

	if *readers > 0 || *writers > 0 {
		r, w := *readers, *writers
		if r <= 0 {
			r = 4
		}
		if w <= 0 {
			w = 2
		}
		emit(experiments.Timed(func() *experiments.Report {
			return experiments.E14ReaderWriter(r, w)
		}))
		return
	}

	if *txnMode {
		emit(experiments.Timed(func() *experiments.Report {
			return experiments.TxnContention(*sessions, *txns, *ops, *conflict)
		}))
		return
	}

	runners := map[string]func() *experiments.Report{
		"e16": func() *experiments.Report { return experiments.E16NetServing(0) },
		"e1":  experiments.E1SchemaParse,
		"e2":  experiments.E2Transform,
		"e3":  experiments.E3ABMapping,
		"e4":  experiments.E4EntitySubtypeGoldens,
		"e5":  experiments.E5Translations,
		"e6":  experiments.E6BackendsScaling,
		"e7":  experiments.E7CapacityGrowth,
		"e8":  experiments.E8CrossModel,
		"e9":  experiments.E9SharedKernel,
		"e10": experiments.E10FiveInterfaces,
		"e11": experiments.E11FaultTolerance,
		"e12": experiments.E12BatchedLoad,
		"e13": experiments.E13GroupCommit,
		"e14": experiments.E14SnapshotScaling,
		"e15": experiments.E15ElasticScaling,
		"e17": experiments.E17PagedStorage,
		"e18": experiments.E18ChangeCapture,
		"e19": experiments.E19DemandPaging,
		"a1":  experiments.AblationIndexVsScan,
		"a2":  experiments.AblationParallelVsSerial,
		"a3":  experiments.AblationDirectVsPreprocess,
	}

	if *exp != "" {
		run, ok := runners[strings.ToLower(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "mldsbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		emit(experiments.Timed(run))
		return
	}

	reports := experiments.All()
	failed := 0
	for _, r := range reports {
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
