package bench

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/core"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
)

// The bank database: one relational table of accounts, ~160 bytes of user
// data per row. Three of the four workloads use it, so a storage change and
// a statement-path change are measured on the same rows.
const (
	bankDB  = "bank"
	bankDDL = "CREATE TABLE acct (id INTEGER NOT NULL, owner CHAR(24), region INTEGER, balance INTEGER, note CHAR(96));"

	// Backends is the number of kernel backends per database (the paper's
	// MBDS with two backends); one process hosts them all.
	Backends = 2
	// PageSize is the page size of every backed store.
	PageSize = 4096
	// bankRowBytes is the user data per row: five values, ~160 bytes.
	bankRowBytes = 160
	// loadBatch is the rows per batched kernel round while loading, the size
	// core.LoadInstance uses.
	loadBatch = 256
	// pairTotal is what the two balances of an account pair (2p, 2p+1) sum
	// to, initially and after every transfer.
	pairTotal = 2000
)

var bankNote = strings.Repeat("n", 90)

// bankRegions is how many distinct region values n rows are spread over:
// about 200 rows per region, so a region query returns a few hundred rows
// that sit on many different pages.
func bankRegions(n int) int { return max(n/200, 1) }

// kernelConfig is the kernel every workload runs on. MsgLatency and the disk
// model only feed the simulated response time; they add no wall time.
func kernelConfig() mbds.Config { return mbds.DefaultConfig(Backends) }

// pagedKernel is kernelConfig with every partition in a backed store under
// dir, its buffer pool capped at poolPages.
func pagedKernel(dir string, poolPages int) mbds.Config {
	cfg := kernelConfig()
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		opts = append(opts, kdb.WithPoolPages(poolPages), kdb.WithPageSize(PageSize))
		return kdb.CreateBacked(partPath(dir, pos), d, opts...)
	}
	return cfg
}

func partPath(dir string, pos int) string {
	return filepath.Join(dir, fmt.Sprintf("part%d.pgf", pos))
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.gob") }

// loadBank creates the bank database on sys and loads n accounts through
// batched kernel rounds, the path core.LoadInstance takes.
func loadBank(sys *core.System, n int) (*core.Database, error) {
	db, err := sys.CreateRelational(bankDB, bankDDL)
	if err != nil {
		return nil, err
	}
	regions := bankRegions(n)
	reqs := make([]*abdl.Request, 0, loadBatch)
	for off := 0; off < n; off += loadBatch {
		reqs = reqs[:0]
		for i := off; i < min(off+loadBatch, n); i++ {
			reqs = append(reqs, abdl.NewInsert(abdm.NewRecord("acct",
				abdm.Keyword{Attr: "id", Val: abdm.Int(int64(i))},
				abdm.Keyword{Attr: "owner", Val: abdm.String(bankOwner(i))},
				abdm.Keyword{Attr: "region", Val: abdm.Int(int64(i % regions))},
				abdm.Keyword{Attr: "balance", Val: abdm.Int(pairTotal / 2)},
				abdm.Keyword{Attr: "note", Val: abdm.String(bankNote)})))
		}
		if _, _, err := db.Kernel.ExecBatch(reqs); err != nil {
			return nil, fmt.Errorf("loading accounts %d..: %w", off, err)
		}
	}
	return db, nil
}

func bankOwner(i int) string { return fmt.Sprintf("owner-%08d", i) }

// stores returns the database's partition stores.
func stores(db *core.Database) []*kdb.Store {
	out := make([]*kdb.Store, db.Kernel.Backends())
	for i := range out {
		out[i] = db.Kernel.Store(i)
	}
	return out
}

// heapPages sums the page-file pages of the database's backed stores.
func heapPages(db *core.Database) int {
	total := 0
	for _, st := range stores(db) {
		if _, pages, ok := st.BackingStats(); ok {
			total += pages
		}
	}
	return total
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^theta
// (the YCSB "zipfian" shape; math/rand's Zipf needs an exponent above 1).
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

func (z *zipf) next() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	return min(i, len(z.cdf)-1)
}

// Reply checks. KFS renders a SQL result as an aligned table: a header
// line, a line of dashes, one line per row, then "(n row(s))". The values
// the rig stores contain no spaces, so a row splits on white space.

// tableRows returns the data rows of a rendered SQL result.
func tableRows(rendered string) ([][]string, error) {
	lines := strings.Split(rendered, "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("not a table: %q", rendered)
	}
	last := lines[len(lines)-1]
	if want := fmt.Sprintf("(%d row(s))", len(lines)-3); last != want {
		return nil, fmt.Errorf("row count line %q, want %q", last, want)
	}
	rows := make([][]string, 0, len(lines)-3)
	for _, l := range lines[2 : len(lines)-1] {
		rows = append(rows, strings.Fields(l))
	}
	return rows, nil
}

// wantRow checks that a rendered SQL result is exactly one row with the
// given cells.
func wantRow(rendered string, cells ...string) error {
	rows, err := tableRows(rendered)
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("got %d rows, want 1: %q", len(rows), rendered)
	}
	return sameCells(rows[0], cells)
}

func sameCells(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("row %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %v, want %v", got, want)
		}
	}
	return nil
}

// wantAffected checks a mutation's "n row(s) affected" reply.
func wantAffected(rendered string, n int) error {
	if want := fmt.Sprintf("%d row(s) affected", n); rendered != want {
		return fmt.Errorf("reply %q, want %q", rendered, want)
	}
	return nil
}

func quoted(s string) string { return "'" + s + "'" }

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func atoi(s string) (int, error) { return strconv.Atoi(s) }
