package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// RunSet is the end-to-end results of several runs of one workload, the
// file format `mldsrig repeat -o` writes and `mldsrig compare` reads.
type RunSet struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Runs     []map[string]float64 `json:"runs"` // metric -> value, one map per run
	Failed   int                  `json:"failed"`
}

// Spread summarises one metric over a set of runs.
type Spread struct {
	Median, Q1, Q3 float64
	Min, Max       float64
}

// IQRShare is the distance between the quartiles as a share of the median:
// the spread the acceptance rule compares with a metric's bound.
func (s Spread) IQRShare() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// RangeShare is (max-min)/median.
func (s Spread) RangeShare() float64 { return ratio(s.Max-s.Min, math.Abs(s.Median)) }

func spreadOf(v []float64) Spread {
	q1, q2, q3 := quartiles(v)
	s := sortedCopy(v)
	return Spread{Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

func (rs *RunSet) values(metric string) []float64 {
	out := make([]float64, 0, len(rs.Runs))
	for _, r := range rs.Runs {
		out = append(out, r[metric])
	}
	return out
}

// Repeat makes n untraced runs of one workload with the same seed and
// reports, per end-to-end metric, the median, the quartiles and
// (max-min)/median. ok is false when a spread exceeds the metric's bound or
// a run was wrong.
func Repeat(o Options, n int, out io.Writer) (*RunSet, bool, error) {
	o.fill()
	rs := &RunSet{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds}
	for i := 0; i < n; i++ {
		run := o
		run.Log = io.Discard
		res, err := Run(run)
		if err != nil {
			return nil, false, err
		}
		vals := map[string]float64{}
		for k, v := range res.Metrics {
			vals[k] = v.Value
		}
		rs.Runs = append(rs.Runs, vals)
		rs.Failed += res.Failed
		fmt.Fprintf(out, "run %d/%d: throughput %.1f ops/s, p50 %.3f ms, failed %d\n",
			i+1, n, vals["throughput_ops_s"], vals["lat_p50_ms"], res.Failed)
	}
	ok := rs.Failed == 0
	fmt.Fprintf(out, "\n%s, %d runs of %d s, seed %d\n", rs.Workload, n, rs.Seconds, rs.Seed)
	fmt.Fprintf(out, "%-18s %12s %12s %12s %10s %10s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, spec := range EndToEnd {
		s := spreadOf(rs.values(spec.Name))
		verdict := ""
		// Set-up time is reported but not held to its bound run by run: the
		// acceptance rule compares its medians only.
		if s.IQRShare() > spec.Bound && spec.Name != "setup_s" {
			verdict = "  SPREAD EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(out, "%-18s %12.4f %12.4f %12.4f %9.2f%% %9.2f%% %6.0f%%%s\n",
			spec.Name, s.Median, s.Q1, s.Q3, 100*s.IQRShare(), 100*s.RangeShare(), 100*spec.Bound, verdict)
	}
	return rs, ok, nil
}

// WriteRunSet stores a run set as JSON.
func WriteRunSet(path string, rs *RunSet) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRunSet loads a run set written by WriteRunSet.
func ReadRunSet(path string) (*RunSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs RunSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rs, nil
}

// Verdict is the outcome of comparing one metric of two run sets.
type Verdict struct {
	Metric     string
	Parent     Spread
	Change     Spread
	Wins       int // pairs in which the change was better
	Losses     int // pairs in which it was worse (ties count for neither)
	Pairs      int
	Judgement  string // "gain", "regression", "no change", "unresolved"
	WorseShare float64
}

// Compare judges run set b (the change) against a (the parent), run i of one
// paired with run i of the other. A gain needs the change to win at least
// nine tenths of the pairs and the medians to differ by more than the
// distance between the parent's quartiles. A regression is a median worse
// than the parent's by more than the metric's bound. Where the parent's own
// spread is wider than the bound and neither holds, the metric is
// unresolved, not unchanged.
func Compare(a, b *RunSet) ([]Verdict, error) {
	if a.Workload != b.Workload {
		return nil, fmt.Errorf("different workloads: %s and %s", a.Workload, b.Workload)
	}
	pairs := min(len(a.Runs), len(b.Runs))
	var out []Verdict
	for _, spec := range EndToEnd {
		av, bv := a.values(spec.Name)[:pairs], b.values(spec.Name)[:pairs]
		v := Verdict{Metric: spec.Name, Parent: spreadOf(av), Change: spreadOf(bv), Pairs: pairs}
		sign := 1.0 // positive delta = better
		if spec.Better == "lower" {
			sign = -1
		}
		for i := range av {
			switch d := sign * (bv[i] - av[i]); {
			case d > 0:
				v.Wins++
			case d < 0:
				v.Losses++
			}
		}
		gap := sign * (v.Change.Median - v.Parent.Median)
		v.WorseShare = ratio(-gap, math.Abs(v.Parent.Median))
		iqr := v.Parent.Q3 - v.Parent.Q1
		switch {
		case v.WorseShare > spec.Bound:
			v.Judgement = "regression"
		case float64(v.Wins) >= 0.9*float64(pairs) && gap > iqr:
			v.Judgement = "gain"
		case v.Parent.IQRShare() > spec.Bound || v.Change.IQRShare() > spec.Bound:
			v.Judgement = "unresolved"
		default:
			v.Judgement = "no change"
		}
		out = append(out, v)
	}
	return out, nil
}

// PrintVerdicts renders a comparison.
func PrintVerdicts(w io.Writer, workload string, vs []Verdict) {
	fmt.Fprintf(w, "%s: %d pairs\n", workload, vs[0].Pairs)
	fmt.Fprintf(w, "%-18s %12s %12s %9s %9s %7s  %s\n", "metric", "parent med", "change med", "worse by", "wins", "losses", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-18s %12.4f %12.4f %8.2f%% %9d %7d  %s\n",
			v.Metric, v.Parent.Median, v.Change.Median, 100*v.WorseShare, v.Wins, v.Losses, v.Judgement)
	}
}
