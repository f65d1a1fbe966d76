// Command mldsrig is the MLDS benchmark. With no subcommand it makes one run
// of one workload and prints every metric, the last line of its output being
// the JSON result the benchmark contract asks for:
//
//	mldsrig --workload sql_point_mem --seed 1 --seconds 20 --trace 0
//
// Subcommands:
//
//	mldsrig repeat -workload W -n 5 [-o A.json]   run n times, report the spread per metric
//	mldsrig compare A.json B.json                 judge the change B against the parent A
//	mldsrig stream -workload W -seed S -user U -n N   print a user's generated statements
//	mldsrig spec                                  print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mlds/rig/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "repeat":
			os.Exit(repeat(os.Args[2:]))
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "stream":
			os.Exit(stream(os.Args[2:]))
		case "spec":
			os.Exit(spec())
		}
	}
	os.Exit(runOnce(os.Args[1:]))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mldsrig:", err)
	return 2
}

// runFlags declares the flags shared by a single run and repeat.
func runFlags(fs *flag.FlagSet, o *bench.Options) {
	fs.StringVar(&o.Workload, "workload", "", "workload name")
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed")
	fs.IntVar(&o.Seconds, "seconds", bench.RunSeconds, "seconds measured")
	fs.StringVar(&o.Dir, "dir", "", "scratch directory (default .bench_build)")
	fs.StringVar(&o.OutDir, "out", "", "span and budget output directory (default rig/out)")
}

func runOnce(args []string) int {
	fs := flag.NewFlagSet("mldsrig", flag.ExitOnError)
	o := bench.Options{Log: os.Stdout}
	runFlags(fs, &o)
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics)")
	_ = fs.Parse(args)
	o.Trace = *trace != 0
	res, err := bench.Run(o)
	if err != nil {
		return fail(err)
	}
	if err := bench.WriteResult(os.Stdout, res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func repeat(args []string) int {
	fs := flag.NewFlagSet("mldsrig repeat", flag.ExitOnError)
	var o bench.Options
	runFlags(fs, &o)
	n := fs.Int("n", 5, "number of runs")
	out := fs.String("o", "", "write the runs to this file, for compare")
	_ = fs.Parse(args)
	rs, ok, err := bench.Repeat(o, *n, os.Stdout)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := bench.WriteRunSet(*out, rs); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func compare(args []string) int {
	if len(args) != 2 {
		return fail(fmt.Errorf("usage: mldsrig compare PARENT.json CHANGE.json"))
	}
	a, err := bench.ReadRunSet(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := bench.ReadRunSet(args[1])
	if err != nil {
		return fail(err)
	}
	vs, err := bench.Compare(a, b)
	if err != nil {
		return fail(err)
	}
	bench.PrintVerdicts(os.Stdout, a.Workload, vs)
	for _, v := range vs {
		if v.Judgement == "regression" {
			return 1
		}
	}
	return 0
}

func stream(args []string) int {
	fs := flag.NewFlagSet("mldsrig stream", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	user := fs.Int("user", 0, "user index")
	n := fs.Int("n", 20, "operations to print")
	_ = fs.Parse(args)
	if err := bench.Stream(os.Stdout, *workload, *seed, *user, *n); err != nil {
		return fail(err)
	}
	return 0
}

func spec() int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bench.Spec()); err != nil {
		return fail(err)
	}
	return 0
}
