package bench

import (
	"fmt"
	"math/rand"

	"mlds/internal/core"
)

// sqlPoint is the point-read workload over the bank table, in its two
// variants: everything in memory with skewed keys and a few writes
// (sql_point_mem), and read-only uniform keys over backed stores whose pools
// hold a sixteenth of the heap (sql_point_paged_cold). The statements are
// the same, so a change to the statement path moves both and a change to
// storage moves only the second.
type sqlPoint struct {
	rows  int
	paged bool
	// poolShare is the fraction of the heap pages each partition's buffer
	// pool may hold (paged variant only).
	poolShare float64
	openRate  float64

	poolPages int // set by build, reported in the run header
}

func newSQLPointMem() *sqlPoint {
	return &sqlPoint{rows: 100_000, openRate: ratePointMem}
}

func newSQLPointCold() *sqlPoint {
	return &sqlPoint{rows: 100_000, paged: true, poolShare: 1.0 / 16, openRate: ratePointCold}
}

func (w *sqlPoint) scale(rows int) { w.rows = rows }

func (w *sqlPoint) rate() float64 { return w.openRate }

func (w *sqlPoint) sessions() []sessionSpec { return []sessionSpec{{langSQL, bankDB}} }

// rowsPerPage is how many ~160-byte accounts fit a 4 KiB heap page with its
// cell headers, measured once on a loaded store; it only sizes the pool, and
// the run header prints the real page count beside it.
const rowsPerPage = 19.6

func (w *sqlPoint) build(dir string, tracing bool) (*core.System, error) {
	cfg := core.Config{Kernel: kernelConfig(), Tracing: tracing}
	if w.paged {
		perPart := float64(w.rows) / Backends / rowsPerPage
		w.poolPages = max(int(perPart*w.poolShare+0.5), 8)
		cfg.Kernel = pagedKernel(dir, w.poolPages)
	}
	sys := core.NewSystem(cfg)
	db, err := loadBank(sys, w.rows)
	if err != nil {
		sys.Close()
		return nil, err
	}
	if w.paged {
		// Flush the load out of the pools and commit the page files, so the
		// timed phases start from committed pages and an empty cache.
		if _, err := db.Ctrl.CheckpointFleet(stores(db)); err != nil {
			sys.Close()
			return nil, fmt.Errorf("checkpoint after load: %w", err)
		}
	}
	return sys, nil
}

func (w *sqlPoint) newUser(u int, rng *rand.Rand) generator {
	g := &sqlPointUser{w: w, u: u, rng: rng}
	if !w.paged {
		g.keys = newZipf(rng, w.rows/Users, 0.99)
		g.written = make(map[int]int64)
	}
	return g
}

type sqlPointUser struct {
	w       *sqlPoint
	u       int
	rng     *rand.Rand
	n       int           // operations generated
	keys    *zipf         // skewed ranks within the user's partition (mem variant)
	written map[int]int64 // balances this user has set
}

// next draws the keys from the seed but takes the kinds at fixed positions
// of the stream (every tenth operation a region read, every twentieth an
// update): a region read costs as much as forty point reads, and a share
// left to chance would move every per-operation figure with the seed.
func (g *sqlPointUser) next() *op {
	g.n++
	if g.w.paged {
		if (g.n+g.u)%10 == 0 {
			return g.region(g.rng.Intn(bankRegions(g.w.rows)))
		}
		return g.point(g.rng.Intn(g.w.rows))
	}
	id := g.keys.next()*Users + g.u
	if (g.n+g.u)%20 == 0 {
		return g.update(id, int64(g.rng.Intn(1_000_000)))
	}
	return g.point(id)
}

func (g *sqlPointUser) balance(id int) int64 {
	if v, ok := g.written[id]; ok {
		return v
	}
	return pairTotal / 2
}

func (g *sqlPointUser) point(id int) *op {
	want := []string{itoa(int64(id)), quoted(bankOwner(id)), itoa(g.balance(id))}
	return &op{kind: "point", stmts: []stmt{{
		lang:  langSQL,
		text:  fmt.Sprintf("SELECT id, owner, balance FROM acct WHERE id = %d", id),
		check: func(r string) error { return wantRow(r, want...) },
	}}}
}

func (g *sqlPointUser) update(id int, v int64) *op {
	return &op{kind: "update", stmts: []stmt{{
		lang:  langSQL,
		text:  fmt.Sprintf("UPDATE acct SET balance = %d WHERE id = %d", v, id),
		check: func(r string) error { return wantAffected(r, 1) },
	}}, applied: func() { g.written[id] = v }}
}

// region reads every account of one region through the region index: a few
// hundred rows spread over as many pages.
func (g *sqlPointUser) region(r int) *op {
	regions, rows := bankRegions(g.w.rows), g.w.rows
	want := (rows - r + regions - 1) / regions
	return &op{kind: "region", stmts: []stmt{{
		lang: langSQL,
		text: fmt.Sprintf("SELECT id, balance FROM acct WHERE region = %d", r),
		check: func(rendered string) error {
			got, err := tableRows(rendered)
			if err != nil {
				return err
			}
			if len(got) != want {
				return fmt.Errorf("region %d: %d rows, want %d", r, len(got), want)
			}
			bal := itoa(pairTotal / 2)
			for _, row := range got {
				if len(row) != 2 || row[1] != bal {
					return fmt.Errorf("region %d: row %v", r, row)
				}
				id, err := atoi(row[0])
				if err != nil || id%regions != r || id < 0 || id >= rows {
					return fmt.Errorf("region %d: row %v does not belong", r, row)
				}
			}
			return nil
		},
	}}}
}

func (w *sqlPoint) describe() string {
	if !w.paged {
		return fmt.Sprintf("bank.acct: %d rows x ~%d B in memory; keys Zipf(0.99) within each user's partition; 95%% point SELECT, 5%% UPDATE", w.rows, bankRowBytes)
	}
	return fmt.Sprintf("bank.acct: %d rows x ~%d B in backed stores; pool %d pages per partition (1/%.0f of the heap); uniform keys; 90%% point SELECT, 10%% region SELECT (~%d rows)",
		w.rows, bankRowBytes, w.poolPages, 1/w.poolShare, w.rows/bankRegions(w.rows))
}
