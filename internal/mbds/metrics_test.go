package mbds

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
)

// seriesValues returns the value of every series of the named metric family
// in reg's Prometheus exposition.
func seriesValues(t *testing.T, reg *obs.Registry, name string) []float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name+"{")
		if !ok {
			continue
		}
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			t.Fatalf("malformed series line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series line %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out
}

// TestBackingGaugesBoundedByPool: on a paged fleet whose data is many times
// its buffer pools, the exported memory gauges stay bounded by the pool — the
// record bodies resident in RAM and the pool's resident pages — while point
// reads and a full scan still answer exactly off the page files.
func TestBackingGaugesBoundedByPool(t *testing.T) {
	const backends, poolPages, n = 2, 8, 2000
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := DefaultConfig(backends)
	cfg.Metrics, cfg.DBName = reg, "paged"
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		opts = append(opts, kdb.WithPoolPages(poolPages), kdb.WithPageSize(512))
		return kdb.CreateBacked(filepath.Join(dir, fmt.Sprintf("part%d.pgf", pos)), d, opts...)
	}
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for pos := 0; pos < backends; pos++ {
			s.Store(pos).CloseBacking()
		}
		s.Close()
	})
	var reqs []*abdl.Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, abdl.NewInsert(employee(i)))
	}
	if _, _, err := s.ExecBatch(reqs); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < backends; pos++ {
		if _, pages, _ := s.Store(pos).BackingStats(); pages < 4*poolPages {
			t.Fatalf("backend %d: %d heap pages, want at least 4x the %d-frame pool", pos, pages, poolPages)
		}
	}

	for _, i := range []int{0, n / 2, n - 1} {
		name := fmt.Sprintf("emp%03d", i)
		res, err := s.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String(name)}), "salary"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 1 {
			t.Fatalf("point read of %s answered %d records, want 1", name, len(res.Records))
		}
	}
	res, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")}), "name"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != n {
		t.Fatalf("scan answered %d records, want %d", len(res.Records), n)
	}

	for _, g := range []string{"mlds_backing_resident_records", "mlds_backing_pool_pages"} {
		vals := seriesValues(t, reg, g)
		if len(vals) != backends {
			t.Fatalf("%s: %d series, want one per backend (%d)", g, len(vals), backends)
		}
		for _, v := range vals {
			if v > poolPages {
				t.Errorf("%s = %v, above the %d-frame pool", g, v, poolPages)
			}
		}
	}
}
