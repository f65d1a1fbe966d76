package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int       // measured time: half closed loop, half open loop
	Trace    bool      // the traced run: per-layer metrics instead of end-to-end
	Dir      string    // scratch directory for page and journal files
	OutDir   string    // where the traced run writes its span file and budget
	Log      io.Writer // the human-readable report (nil: discarded)

	// rows scales the bank workloads down and setups/warmup shorten the run
	// (tests only; zero means the benchmark's own sizes).
	rows   int
	setups int
	warmup time.Duration
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports; its JSON form is the run's last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// setupRuns is how many times a run sets the bed up; setup_s is the median.
const setupRuns = 3

// warmupTime is the closed-loop warm-up before anything is measured.
const warmupTime = 2 * time.Second

func (o *Options) fill() {
	if o.Seconds <= 0 {
		o.Seconds = RunSeconds
	}
	if o.Dir == "" {
		o.Dir = ".bench_build"
	}
	if o.OutDir == "" {
		o.OutDir = filepath.Join("rig", "out")
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.setups == 0 {
		o.setups = setupRuns
	}
	if o.warmup == 0 {
		o.warmup = warmupTime
	}
}

// Run executes one run of one workload and returns its result. The error is
// for a rig that could not run at all; wrong replies come back in the
// result, with Correct false.
func Run(o Options) (*Result, error) {
	o.fill()
	runtime.GOMAXPROCS(Clients())
	if o.Trace {
		return runTraced(o)
	}
	return runPlain(o)
}

// setUp raises the bed o.setups times and keeps the last; the set-up time is
// the median over all of them.
func setUp(o Options, tracing bool) (*bed, float64, error) {
	base, err := scratch(o.Dir)
	if err != nil {
		return nil, 0, err
	}
	var times []float64
	for i := 0; ; i++ {
		w, err := newWorkload(o.Workload)
		if err != nil {
			return nil, 0, err
		}
		if s, ok := w.(sized); ok && o.rows > 0 {
			s.scale(o.rows)
		}
		runtime.GC()
		t0 := time.Now()
		b, err := raise(w, filepath.Join(base, fmt.Sprintf("bed%d", i)), o.Seed, tracing)
		if err != nil {
			_ = os.RemoveAll(base)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.base = base
		if i == o.setups-1 {
			return b, median(times), nil
		}
		b.close()
	}
}

// scratch makes a fresh directory for one run's files under dir.
func scratch(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

func runPlain(o Options) (*Result, error) {
	b, setupS, err := setUp(o, false)
	if err != nil {
		return nil, err
	}
	defer b.closeAll()
	fmt.Fprintf(o.Log, "workload %s seed %d: %d users on %d connections, GOMAXPROCS %d\n",
		o.Workload, o.Seed, Users, len(b.conns), runtime.GOMAXPROCS(0))
	describe(o.Log, b)

	var stop func()
	hk, _ := b.w.(hooked)
	if hk != nil {
		if stop, err = hk.start(b); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	half := time.Duration(o.Seconds) * time.Second / 2
	enterPhase(b.w, phaseWarmup)
	warm := b.closedLoop(o.warmup, nil)
	enterPhase(b.w, phaseClosed)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	closed := b.closedLoop(half, nil)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	rate := closedRates(closed, &m0, &m1, hk)
	// The live heap is the smallest of three readings, each after a forced
	// collection: a buffer some background goroutine holds for a moment (a
	// journal re-read, a checkpoint image) is gone from at least one.
	var live runtime.MemStats
	measureLive := func() {
		for i := 0; i < 3; i++ {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if i == 0 || ms.HeapAlloc < live.HeapAlloc {
				live = ms
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if hk != nil {
		hk.whileIdle(measureLive)
	} else {
		measureLive()
	}

	enterPhase(b.w, phaseOpen)
	open := b.openLoop(half, b.w.rate(), nil)
	if stop != nil {
		stop()
	}
	extra := map[string]float64{}
	finishFailed := 0
	if hk != nil {
		if finishFailed, err = hk.finish(b, extra); err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
	}

	lat := durationsUS(open.lat)
	late := durationsUS(open.late)
	res := &Result{
		Attempted: warm.ops + closed.ops + open.ops,
		Failed:    warm.failed + closed.failed + open.failed + finishFailed,
		Metrics:   map[string]Value{},
	}
	put := func(name string, v float64) { res.Metrics[name] = Value{v, unitOf(name)} }
	put("throughput_ops_s", rate.ops/rate.seconds)
	put("lat_p50_ms", quantile(lat, 0.50)/1e3)
	put("cpu_us_per_op", (cpu1-cpu0).Seconds()*1e6/float64(closed.ops))
	put("allocs_per_op", rate.mallocs/rate.ops)
	put("alloc_kb_per_op", rate.bytes/rate.ops/1024)
	put("live_heap_mb", float64(live.HeapAlloc)/(1<<20))
	put("setup_s", setupS)
	res.Correct = res.Failed == 0

	fmt.Fprintf(o.Log, "closed loop: %d clients, %.1f s, %d operations, %d failed, %d transaction retries\n",
		len(b.conns), closed.elapsed.Seconds(), closed.ops, closed.failed, closed.retries)
	if rate.cycles > 0 {
		fmt.Fprintf(o.Log, "  rates taken over %d whole checkpoint cycles: %.0f operations in %.2f s\n", rate.cycles, rate.ops, rate.seconds)
	}
	fmt.Fprintf(o.Log, "open loop: %.0f ops/s offered for %.1f s, %d latency samples, %d failed; generator lateness p50 %.3f ms p99 %.3f ms over %d sends\n",
		b.w.rate(), half.Seconds(), len(lat), open.failed, quantile(late, 0.5)/1e3, quantile(late, 0.99)/1e3, len(late))
	fmt.Fprintf(o.Log, "  open-loop latency from due time, ms: mean %.3f, p50 %.3f, p90 %.3f, p99 %.3f (the tail is reported, not bounded: it does not repeat on this machine)\n",
		mean(lat)/1e3, quantile(lat, 0.50)/1e3, quantile(lat, 0.90)/1e3, quantile(lat, 0.99)/1e3)
	for _, k := range sortedKeys(extra) {
		fmt.Fprintf(o.Log, "  %-32s %12.4f\n", k, extra[k])
	}
	report(o.Log, b, res, EndToEnd)
	return res, nil
}

// report prints every metric by name and unit, then the first failures.
func report(w io.Writer, b *bed, res *Result, specs []MetricSpec) {
	for _, s := range specs {
		v := res.Metrics[s.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", s.Name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (share %.6f)\n", res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)))
	for _, e := range b.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}

// describe prints the data and pool sizes the workload runs at.
func describe(w io.Writer, b *bed) {
	for _, info := range b.sys.Databases() {
		db, _ := b.sys.Database(info.Name)
		fmt.Fprintf(w, "database %s (%s): %d records on %d backends", info.Name, info.Model, info.Records, info.Backends)
		if pages := heapPages(db); pages > 0 {
			pool := 0
			for _, st := range stores(db) {
				ps, _, _ := st.BackingStats()
				pool += ps.Resident
			}
			fmt.Fprintf(w, "; %d file pages of %d B (%.1f MiB), %d resident in the pools",
				pages, PageSize, float64(pages)*PageSize/(1<<20), pool)
		}
		fmt.Fprintln(w)
	}
	if d, ok := b.w.(interface{ describe() string }); ok {
		fmt.Fprintln(w, d.describe())
	}
}

func unitOf(name string) string {
	for _, list := range [][]MetricSpec{EndToEnd, PerLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return ""
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteResult prints the result line: one JSON object, last on stdout.
func WriteResult(w io.Writer, res *Result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// rates is what the closed loop did over the interval its rates are taken on.
type rates struct {
	ops, seconds   float64
	mallocs, bytes float64
	cycles         int // whole background cycles the interval spans (0: the whole phase)
}

// closedRates picks the interval of the closed loop that throughput and
// allocations per operation are taken over: the whole phase, or — when the
// workload runs periodic background work and at least two of its cycles
// ended inside the phase — from the end of the first of them to the end of
// the last, so that whole cycles are measured.
func closedRates(p *phase, m0, m1 *runtime.MemStats, hk hooked) rates {
	whole := rates{ops: float64(p.ops), seconds: p.elapsed.Seconds(),
		mallocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
	if hk == nil {
		return whole
	}
	var in []mark
	for _, mk := range hk.marks() {
		if mk.at.After(p.start) && mk.at.Before(p.start.Add(p.elapsed)) {
			in = append(in, mk)
		}
	}
	if len(in) < 3 {
		return whole
	}
	first, last := in[0], in[len(in)-1]
	from, to := int64(first.at.Sub(p.start)), int64(last.at.Sub(p.start))
	ops := 0
	for _, end := range p.end {
		if end > from && end <= to {
			ops++
		}
	}
	return rates{ops: float64(ops), seconds: last.at.Sub(first.at).Seconds(),
		mallocs: float64(last.mallocs - first.mallocs), bytes: float64(last.totalAlloc - first.totalAlloc),
		cycles: len(in) - 1}
}

// processCPU is the CPU time, user and system, the process has used. Unlike
// wall time it does not grow while a neighbour on the host has the cores,
// so cpu_us_per_op repeats where throughput does not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
