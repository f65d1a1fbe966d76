package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// toy returns options for a run at toy size: small tables, one set-up,
// one-second phases.
func toy(t *testing.T, workload string, trace bool) Options {
	t.Helper()
	dir := t.TempDir()
	return Options{Workload: workload, Seed: 7, Seconds: 2, Trace: trace,
		Dir: filepath.Join(dir, "data"), OutDir: filepath.Join(dir, "out"),
		rows: 4000, setups: 1, warmup: 200 * time.Millisecond}
}

func metricNames(specs []MetricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func resultNames(res *Result) []string {
	out := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload passes its oracle at toy size and reports exactly the
// end-to-end metrics of the contract, none of them zero.
func TestWorkloadsPassTheirOracles(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var log bytes.Buffer
			o := toy(t, w.Name, false)
			o.Log = &log
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			if got, want := resultNames(res), metricNames(EndToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 || math.IsNaN(v.Value) || v.Unit != unitOf(name) {
					t.Errorf("%s = %v %q", name, v.Value, v.Unit)
				}
			}
		})
	}
}

// The traced run reports exactly the per-layer metrics of the contract,
// writes its spans, and on the in-memory workload never touches the pager.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	var log bytes.Buffer
	o := toy(t, "sql_point_mem", true)
	o.Log = &log
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect:\n%s", log.String())
	}
	if got, want := resultNames(res), metricNames(PerLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	for _, name := range []string{"server.roundtrip_overhead_us", "sql.parse_ns", "kc.exec_self_us", "kdb.exec_point_us", "wire.reply_bytes"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["pager.misses_per_op"].Value; v != 0 {
		t.Errorf("pager.misses_per_op = %v on an in-memory workload", v)
	}
	data, err := os.ReadFile(filepath.Join(o.OutDir, "trace-sql_point_mem.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
	roots := 0
	for i, s := range spans {
		if s.End < s.Start || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent == -1 {
			roots++
		} else if spans[s.Parent].Stmt != s.Stmt {
			t.Fatalf("span %d and its parent belong to different statements", i)
		}
	}
	if roots == 0 {
		t.Fatal("no request spans")
	}
}

// A wrong reply fails the run: the oracle is really consulted.
func TestOracleCatchesAWrongRow(t *testing.T) {
	if err := wantRow("id  balance\n--  -------\n7   1000   \n(1 row(s))", "7", "1000"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"id  balance\n--  -------\n7   999    \n(1 row(s))",
		"id  balance\n--  -------\n(0 row(s))",
		"id  balance\n--  -------\n7   1000   \n7   1000   \n(2 row(s))",
		"id  balance\n--  -------\n7   1000   \n(2 row(s))",
	} {
		if wantRow(bad, "7", "1000") == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// BENCHMARK.json names the same workloads and metrics as the rig emits, and
// stays inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Benchmark
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := Spec(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from bench.Spec(); regenerate it with `mldsrig spec`\n got %+v\nwant %+v", onDisk, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range onDisk.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range onDisk.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range onDisk.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", onDisk.RunSeconds)
	}
}

// The open loop times an operation from when it was due: a stall on one
// user raises the latency of the operations queued behind it, which were
// themselves sent without delay.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	w := newSQLPointMem()
	w.scale(2000)
	b, err := raise(w, filepath.Join(t.TempDir(), "bed"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	const stall = 200 * time.Millisecond
	var stalled atomic.Int32
	// 3200 ops/s over 32 users: each user is due every 10 ms, so about 19 of
	// user 0's operations come due while its first one is stalled.
	p := b.openLoop(time.Second, 3200, func(user, k int) {
		if user == 0 && k == 0 {
			stalled.Add(1)
			time.Sleep(stall)
		}
	})
	if stalled.Load() != 1 || p.failed != 0 {
		t.Fatalf("stalled %d times, %d failed", stalled.Load(), p.failed)
	}
	late := 0
	for _, ns := range p.lat {
		if time.Duration(ns) >= stall/4 {
			late++
		}
	}
	if late < 10 {
		t.Fatalf("%d operations waited %v or more; the stalled one and those queued behind it should have (at least 10)", late, stall/4)
	}
}

// The same seed reproduces a user's statement stream byte for byte.
func TestStreamIsDeterministic(t *testing.T) {
	for _, w := range Workloads {
		var a, b, c bytes.Buffer
		for _, run := range []struct {
			buf  *bytes.Buffer
			seed int64
		}{{&a, 3}, {&b, 3}, {&c, 4}} {
			if err := Stream(run.buf, w.Name, run.seed, 5, 200); err != nil {
				t.Fatal(err)
			}
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: seed 3 gave two different streams", w.Name)
		}
		if bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: seeds 3 and 4 gave the same stream", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

// The comparison rule: a gain needs nine wins in ten and a gap beyond the
// parent's quartile distance; a median worse by more than the bound is a
// regression; a spread wider than the bound leaves a metric unresolved.
func TestCompareRule(t *testing.T) {
	set := func(throughput ...float64) *RunSet {
		rs := &RunSet{Workload: "sql_point_mem"}
		for _, v := range throughput {
			run := map[string]float64{}
			for _, m := range EndToEnd {
				run[m.Name] = 1
			}
			run["throughput_ops_s"] = v
			rs.Runs = append(rs.Runs, run)
		}
		return rs
	}
	parent := set(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	verdict := func(change *RunSet) string {
		vs, err := Compare(parent, change)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if v.Metric == "throughput_ops_s" {
				return v.Judgement
			}
		}
		return ""
	}
	if got := verdict(set(110, 111, 109, 110, 112, 108, 110, 111, 109, 110)); got != "gain" {
		t.Errorf("10%% faster in every pair: %s", got)
	}
	if got := verdict(set(70, 71, 69, 70, 72, 68, 70, 71, 69, 70)); got != "regression" {
		t.Errorf("30%% slower, bound 25%%: %s", got)
	}
	if got := verdict(set(100, 100, 100, 101, 101, 99, 99, 100, 100, 100)); got != "no change" {
		t.Errorf("same: %s", got)
	}
	if got := verdict(set(100, 130, 80, 100, 125, 85, 100, 120, 90, 100)); got != "unresolved" {
		t.Errorf("noisy change: %s", got)
	}
}
