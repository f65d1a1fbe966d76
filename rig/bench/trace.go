package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"mlds/internal/core"
	"mlds/internal/pager"
)

// peelBudget bounds the peel phase: it stops after peelStatements sampled
// statements or peelTime, whichever comes first.
const (
	peelStatements = 1500
	peelTime       = 6 * time.Second
)

// runTraced is the traced run. It measures an untraced closed loop for
// reference, raises a second bed with the program's tracing on and the
// rig's spans recorded, reads the exported counters around a closed loop on
// it, then peels sampled statements layer by layer and times the leaf
// modules (codec, parsers, plan cache, pager) on rig-owned instances.
func runTraced(o Options) (*Result, error) {
	o.setups = 1
	total := time.Duration(o.Seconds) * time.Second
	refTime, closedTime, openTime := total/4, total/4, total/5

	// Reference: the same closed loop with tracing off.
	ref, _, err := setUp(o, false)
	if err != nil {
		return nil, err
	}
	if t, ok := ref.w.(tracedWorkload); ok {
		t.traced()
	}
	refPhase, err := tracedLoops(ref, o.warmup, refTime, nil)
	ref.closeAll()
	if err != nil {
		return nil, err
	}

	b, _, err := setUp(o, true)
	if err != nil {
		return nil, err
	}
	defer b.closeAll()
	if t, ok := b.w.(tracedWorkload); ok {
		t.traced()
	}
	fmt.Fprintf(o.Log, "workload %s seed %d (traced run): %d users on %d connections, GOMAXPROCS %d\n",
		o.Workload, o.Seed, Users, len(b.conns), runtime.GOMAXPROCS(0))
	describe(o.Log, b)

	log := newSpanLog()
	m := map[string]float64{}
	var stop func()
	hk, _ := b.w.(hooked)
	if hk != nil {
		if stop, err = hk.start(b); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	enterPhase(b.w, phaseWarmup)
	warm := b.closedLoop(o.warmup, nil)
	enterPhase(b.w, phaseClosed)
	before := takeCounts(b.sys)
	closed := b.closedLoop(closedTime, log)
	after := takeCounts(b.sys)
	countMetrics(m, b, closed, before, after)
	m["rig.trace_overhead_share"] = 1 - ratio(float64(closed.ops)/closed.elapsed.Seconds(),
		float64(refPhase.ops)/refPhase.elapsed.Seconds())

	enterPhase(b.w, phaseOpen)
	open := b.openLoop(openTime, b.w.rate(), nil)
	m["rig.late_p99_ms"] = quantileOr0(durationsUS(open.late), 0.99) / 1e3
	m["client.lat_p99_ms"] = quantileOr0(durationsUS(open.lat), 0.99) / 1e3

	if t, ok := b.w.(tracedWorkload); ok {
		t.traceMetrics(m, closed)
	}
	if stop != nil {
		stop()
	}

	// Peel sampled statements of the same generated stream, one at a time.
	p, err := newPeeler(b, log)
	if err != nil {
		return nil, err
	}
	enterPhase(b.w, phasePeel)
	peelFailed := 0
	deadline := time.Now().Add(min(peelTime, total*3/10))
	for n := 0; p.s.stmts < peelStatements && time.Now().Before(deadline); n++ {
		u := b.users[n%len(b.users)]
		op := u.gen.next()
		if err := p.peelOp(u, op, n%4 == 3); err != nil {
			b.noteErr("peel user %d %s: %v", u.id, op.kind, err)
			peelFailed++
			if peelFailed > 20 {
				break
			}
		}
	}
	p.close()
	p.s.metrics(m)
	if err := pagerMetrics(m, b); err != nil {
		return nil, fmt.Errorf("pager probe: %w", err)
	}

	finishFailed := 0
	if hk != nil {
		if finishFailed, err = hk.finish(b, m); err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
	}

	res := &Result{
		Attempted: refPhase.ops + warm.ops + closed.ops + open.ops + p.s.stmts,
		Failed:    refPhase.failed + warm.failed + closed.failed + open.failed + peelFailed + finishFailed,
		Metrics:   map[string]Value{},
	}
	m["rig.failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	for _, s := range PerLayer {
		res.Metrics[s.Name] = Value{m[s.Name], s.Unit}
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(o.Log, "reference closed loop (tracing off): %.1f s, %d operations; traced closed loop: %.1f s, %d operations, %d failed\n",
		refPhase.elapsed.Seconds(), refPhase.ops, closed.elapsed.Seconds(), closed.ops, closed.failed)
	fmt.Fprintf(o.Log, "peeled %d statements of %d operations kinds (%d peel failures); timings are medians over them\n",
		p.s.stmts, len(p.s.budget), peelFailed)
	report(o.Log, b, res, PerLayer)
	budget := p.s.budgetTable(o.Workload)
	cross := p.s.crossTable()
	fmt.Fprint(o.Log, budget, cross)

	spanPath := filepath.Join(o.OutDir, "trace-"+o.Workload+".json")
	if err := log.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(o.OutDir, "budget-"+o.Workload+".md"), []byte(budget+cross), 0o644); err != nil {
		return nil, fmt.Errorf("writing budget: %w", err)
	}
	fmt.Fprintf(o.Log, "%d spans written to %s\n", len(log.spans), spanPath)
	return res, nil
}

// tracedLoops runs a bed's hooks around a warm-up and one closed loop.
func tracedLoops(b *bed, warmup, d time.Duration, log *spanLog) (*phase, error) {
	var stop func()
	if hk, ok := b.w.(hooked); ok {
		var err error
		if stop, err = hk.start(b); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	enterPhase(b.w, phaseWarmup)
	warm := b.closedLoop(warmup, nil)
	enterPhase(b.w, phaseClosed)
	p := b.closedLoop(d, log)
	p.failed += warm.failed
	if stop != nil {
		stop()
	}
	return p, nil
}

// counts is everything the rig reads from exported statistics at one moment.
type counts struct {
	prom      counters
	pool      pager.PoolStats // summed over the backed stores
	cacheHit  uint64
	cacheMiss uint64
	resident  int
	gcCPU     float64
	totalCPU  float64
	mem       runtime.MemStats
}

func takeCounts(sys *core.System) *counts {
	c := &counts{prom: readCounters(sys)}
	for _, info := range sys.Databases() {
		db, _ := sys.Database(info.Name)
		ks := db.Kernel.StoreStats()
		c.cacheHit += ks.CacheHits
		c.cacheMiss += ks.CacheMisses
		for _, st := range stores(db) {
			c.resident += st.ResidentRecords()
			if ps, _, ok := st.BackingStats(); ok {
				c.pool.Hits += ps.Hits
				c.pool.Misses += ps.Misses
				c.pool.Evictions += ps.Evictions
				c.pool.Writebacks += ps.Writebacks
				c.pool.Overflow += ps.Overflow
			}
		}
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// countMetrics derives the count-based metrics from two snapshots around
// the traced closed loop.
func countMetrics(m map[string]float64, b *bed, closed *phase, c0, c1 *counts) {
	d := func(name string) float64 { return c1.prom.delta(c0.prom, name) }
	ops := float64(closed.ops)
	hits, misses := d("mlds_plan_cache_hits_total"), d("mlds_plan_cache_misses_total")
	m["plancache.hit_share"] = ratio(hits, hits+misses)
	m["server.refused_total"] = d("mlds_server_refused_total")
	m["mbds.backends_touched_per_req"] = ratio(d("mlds_backend_requests_total"), d("mlds_kernel_requests_total"))

	commits, aborts := d("mlds_txn_commits_total"), d("mlds_txn_aborts_total")
	m["txn.deadlock_share"] = ratio(d("mlds_txn_deadlocks_total"), commits+aborts)
	m["txn.abort_retry_share"] = ratio(float64(closed.retries), ops)
	m["txn.lock_wait_share"] = ratio(d("mlds_txn_lock_wait_seconds_sum"), float64(len(b.conns))*closed.elapsed.Seconds())
	m["txn.mvcc_versions"] = c1.prom["mlds_mvcc_versions"]
	m["txn.gc_pruned_total"] = d("mlds_mvcc_gc_pruned_total")
	m["cdc.dropped_total"] = d("mlds_commit_sub_dropped_total")

	ch, cm := float64(c1.cacheHit-c0.cacheHit), float64(c1.cacheMiss-c0.cacheMiss)
	m["kdb.result_cache_hit_share"] = ratio(ch, ch+cm)
	m["kdb.resident_records"] = float64(c1.resident)

	ph, pm := float64(c1.pool.Hits-c0.pool.Hits), float64(c1.pool.Misses-c0.pool.Misses)
	m["pager.hit_share"] = ratio(ph, ph+pm)
	m["pager.misses_per_op"] = ratio(pm, ops)
	m["pager.evictions_per_op"] = ratio(float64(c1.pool.Evictions-c0.pool.Evictions), ops)
	m["pager.writebacks_per_commit"] = ratio(float64(c1.pool.Writebacks-c0.pool.Writebacks), commits)
	m["pager.overflow_total"] = float64(c1.pool.Overflow)

	m["gc.cpu_share"] = ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU)
	var pauses []float64
	for n := c0.mem.NumGC; n < c1.mem.NumGC && c1.mem.NumGC-n <= uint32(len(c1.mem.PauseNs)); n++ {
		pauses = append(pauses, float64(c1.mem.PauseNs[n%uint32(len(c1.mem.PauseNs))])/1e3)
	}
	sort.Float64s(pauses)
	m["gc.pause_p99_us"] = quantileOr0(pauses, 0.99)
}

// metrics reduces the peeled samples to the per-layer metrics.
func (s *samples) metrics(m map[string]float64) {
	for name, ns := range s.ns {
		switch {
		case strings.HasSuffix(name, "_us"):
			m[name] = medianUS(ns)
		case strings.HasSuffix(name, "_ns"):
			m[name] = medianNS(ns)
		}
	}
	for _, name := range []string{"sql.parse_allocs", "daplex.parse_allocs", "codasyl.parse_allocs",
		"dli.parse_allocs", "abdl.parse_allocs", "kdb.allocs_per_exec", "wire.reply_bytes"} {
		m[name] = medianOf(s.values[name])
	}
	// Requests per statement is an exact count for a given statement mix.
	for _, kms := range []string{"relkms", "kms", "dapkms", "hiekms"} {
		m[kms+".abdl_reqs_per_stmt"] = mean(s.values[kms+".abdl_reqs_per_stmt"])
	}
	m["kdb.records_examined_per_result"] = ratio(sum(s.values["kdb.examined"]), sum(s.values["kdb.results"]))
	m["kfs.bytes_per_row"] = ratio(sum(s.values["kfs.bytes"]), sum(s.values["kfs.rows"]))
}

// budgetTable renders the layer budget: for each operation kind, the median
// time each layer accounts for, in microseconds.
func (s *samples) budgetTable(workload string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nLayer budget, %s (median microseconds per operation over the peeled sample; mutations are not entered below kc, so for them kc+txn includes the layers beneath):\n\n", workload)
	fmt.Fprintf(&sb, "| operation | n |")
	for _, n := range layerNames {
		fmt.Fprintf(&sb, " %s |", n)
	}
	fmt.Fprintf(&sb, " sum |\n|---|---|")
	for range layerNames {
		sb.WriteString("---|")
	}
	sb.WriteString("---|\n")
	kinds := make([]string, 0, len(s.budget))
	for k := range s.budget {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ops := s.budget[k]
		fmt.Fprintf(&sb, "| %s | %d |", k, len(ops))
		total := 0.0
		for layer := 0; layer < numLayers; layer++ {
			col := make([]int64, len(ops))
			for i := range ops {
				col[i] = ops[i][layer]
			}
			v := medianUS(col)
			total += v
			fmt.Fprintf(&sb, " %.1f |", v)
		}
		fmt.Fprintf(&sb, " %.1f |\n", total)
	}
	return sb.String()
}

// crossTable compares the peeled self times of read statements with the
// ones derived from the program's own span tree, layer by layer.
func (s *samples) crossTable() string {
	var sb strings.Builder
	sb.WriteString("\nCross-check against the program's span tree (core.Config.Tracing), read statements only:\n\n")
	sb.WriteString("| layer | n | peeled median us | span-tree median us | disagreement |\n|---|---|---|---|---|\n")
	for _, layer := range []string{"core", "kms", "kc+mbds", "kdb", "kfs"} {
		c := s.cross[layer]
		if len(c[0]) == 0 {
			continue
		}
		peeled, spans := medianUS(c[0]), medianUS(c[1])
		fmt.Fprintf(&sb, "| %s | %d | %.2f | %.2f | %+.0f%% |\n", layer, len(c[0]), peeled, spans, 100*ratio(peeled-spans, spans))
	}
	return sb.String()
}

// pagerMetrics times the pager on a rig-owned pool and heap over a copy of
// one partition's page file, and reports the space the files take.
func pagerMetrics(m map[string]float64, b *bed) error {
	for _, info := range b.sys.Databases() {
		db, _ := b.sys.Database(info.Name)
		if heapPages(db) == 0 {
			continue
		}
		// A checkpoint first, so the copy is a committed generation.
		if _, err := db.Ctrl.CheckpointFleet(stores(db)); err != nil {
			return err
		}
		var bytes int64
		for pos := range stores(db) {
			st, err := os.Stat(partPath(b.dir, pos))
			if err != nil {
				return err
			}
			bytes += st.Size()
		}
		m["pager.file_bytes_per_live_byte"] = ratio(float64(bytes), float64(info.Records)*bankRowBytes)
		probe := filepath.Join(b.dir, "pagerprobe.pgf")
		if err := copyFile(partPath(b.dir, 0), probe); err != nil {
			return err
		}
		defer os.Remove(probe)
		return timePager(m, probe)
	}
	return nil
}

func timePager(m map[string]float64, path string) error {
	f, err := pager.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A pool that holds the whole file: after the heap's opening scan every
	// pin is a hit.
	big := pager.NewPool(f, f.Pages()+1)
	heap, err := pager.NewHeap(big)
	if err != nil {
		return err
	}
	var rids []pager.RID
	var pages []uint32
	err = heap.Scan(func(rid pager.RID, _ []byte) error {
		if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
			pages = append(pages, rid.Page)
		}
		if len(rids) < 50_000 {
			rids = append(rids, rid)
		}
		return nil
	})
	if err != nil || len(rids) == 0 {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	var hit, miss, get []int64
	for i := 0; i < 2000; i++ {
		id := pages[rng.Intn(len(pages))]
		t0 := time.Now()
		if _, err := big.Pin(id); err != nil {
			return err
		}
		big.Unpin(id, false)
		hit = append(hit, int64(time.Since(t0)))
		rid := rids[rng.Intn(len(rids))]
		t0 = time.Now()
		if _, err := heap.Get(rid); err != nil {
			return err
		}
		get = append(get, int64(time.Since(t0)))
	}
	// A pool of eight frames: every pin of a random page reads it in and
	// evicts another.
	small := pager.NewPool(f, 8)
	for i := 0; i < 2000; i++ {
		id := pages[rng.Intn(len(pages))]
		t0 := time.Now()
		if _, err := small.Pin(id); err != nil {
			return err
		}
		small.Unpin(id, false)
		miss = append(miss, int64(time.Since(t0)))
	}
	m["pager.pin_hit_ns"] = medianNS(hit)
	m["pager.pin_miss_ns"] = medianNS(miss)
	m["pager.heap_get_ns"] = medianNS(get)
	return nil
}
