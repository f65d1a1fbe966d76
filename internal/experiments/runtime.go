package experiments

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/dapkms"
	"mlds/internal/daplex"
	"mlds/internal/kc"
	"mlds/internal/kms"
	"mlds/internal/mbds"
	"mlds/internal/netmodel"
	"mlds/internal/univgen"
	"mlds/internal/xform"
)

// session bundles a loaded University database with both interfaces.
type session struct {
	db   *univgen.Database
	sys  *mbds.System
	ctrl *kc.Controller
}

func newSession(cfg univgen.Config, backends int) (*session, error) {
	db, err := univgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := db.NewKernel(backends)
	if err != nil {
		return nil, err
	}
	if _, err := db.Load(sys); err != nil {
		sys.Close()
		return nil, err
	}
	ctrl := kc.New(sys)
	ctrl.SeedKeys(db.Instance.MaxKey())
	return &session{db: db, sys: sys, ctrl: ctrl}, nil
}

func (s *session) close() { s.sys.Close() }

func (s *session) dml() *kms.Translator {
	return kms.NewFunctional(s.db.Mapping, s.db.AB, s.ctrl)
}

func (s *session) daplex() *dapkms.Interface {
	return dapkms.New(s.db.Mapping, s.db.AB, s.ctrl)
}

// dmlExec parses and runs one CODASYL-DML statement on a translator.
func dmlExec(tr *kms.Translator, line string) (*kms.Outcome, error) {
	st, err := codasyl.ParseStmt(line)
	if err != nil {
		return nil, err
	}
	return tr.ExecCtx(context.Background(), st)
}

// daplexExec parses and runs one Daplex statement on an interface.
func daplexExec(i *dapkms.Interface, src string) ([]dapkms.Row, error) {
	st, err := daplex.ParseDML(src)
	if err != nil {
		return nil, err
	}
	return i.ExecCtx(context.Background(), st)
}

// E5Translations regenerates the Chapter VI worked translations: each DML
// statement with the ABDL requests KMS generated for it.
func E5Translations() *Report {
	const id, title = "E5", "Chapter VI — CODASYL-DML statements and their ABDL translations"
	s, err := newSession(univgen.SmallConfig(), 2)
	if err != nil {
		return failf(id, title, "setup: %v", err)
	}
	defer s.close()
	tr := s.dml()
	var b strings.Builder
	ok := true
	run := func(line string, wantReq ...string) {
		st, err := codasyl.ParseStmt(line)
		if err != nil {
			ok = false
			fmt.Fprintf(&b, "%s\n  !! parse: %v\n", line, err)
			return
		}
		out, err := tr.ExecCtx(context.Background(), st)
		fmt.Fprintf(&b, "%s\n", line)
		if err != nil {
			fmt.Fprintf(&b, "  !! aborted: %v\n", err)
		}
		if out != nil {
			for _, r := range out.Requests {
				fmt.Fprintf(&b, "  -> %s\n", r)
			}
			for _, w := range wantReq {
				if !outHas(out, w) {
					ok = false
					fmt.Fprintf(&b, "  MISSING EXPECTED: %s\n", w)
				}
			}
		}
	}
	// VI.B.1 FIND ANY — the thesis's 'Advanced Database' example.
	run("MOVE 'Advanced Database' TO title IN course")
	run("FIND ANY course USING title IN course",
		"RETRIEVE ((FILE = 'course') AND (title = 'Advanced Database')) (all attributes)")
	// VI.C GET.
	run("GET course")
	// VI.B.4 FIND FIRST over an ISA set.
	run("MOVE 'Student 0000' TO pname IN person")
	run("FIND ANY person USING pname IN person")
	run("FIND FIRST student WITHIN person_student", "(FILE = 'student')")
	// VI.B.5 FIND OWNER.
	run("FIND OWNER WITHIN advisor", "(FILE = 'faculty')")
	// VI.G STORE with duplicate check.
	run("MOVE 'Trans Course' TO title IN course")
	run("MOVE 'Fall' TO semester IN course")
	run("MOVE 3 TO credits IN course")
	run("STORE course", "RETRIEVE ((FILE = 'course') AND (title = 'Trans Course') AND (semester = 'Fall')) (course)", "INSERT (<FILE, 'course'>")
	// VI.F MODIFY.
	run("MOVE 4 TO credits IN course")
	run("MODIFY credits IN course", "UPDATE ((FILE = 'course') AND (course = ")
	// VI.H ERASE of the fresh course.
	run("ERASE course", "DELETE ((FILE = 'course') AND (course = ")
	return report(id, title, ok, b.String())
}

func outHas(out *kms.Outcome, substr string) bool {
	for _, r := range out.Requests {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}

// scaleConfig returns the University configuration scaled for the MBDS
// sweeps.
func scaleConfig(scale int) univgen.Config {
	cfg := univgen.SmallConfig()
	cfg.Students *= 24 * scale
	cfg.Faculty *= 8 * scale
	cfg.Courses *= 8 * scale
	cfg.Staff *= 8 * scale
	return cfg
}

// sweepQuery is the broad retrieval both MBDS sweeps time.
var sweepQuery = abdl.NewRetrieve(abdm.And(
	abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("student")},
	abdm.Predicate{Attr: "major", Op: abdm.OpEq, Val: abdm.String("Computer Science")},
), "gpa")

// ResponseTime loads a University instance at the scale and measures the
// simulated response time of the sweep query on n backends.
func ResponseTime(n, scale int) (time.Duration, error) {
	s, err := newSession(scaleConfig(scale), n)
	if err != nil {
		return 0, err
	}
	defer s.close()
	_, rt, err := s.sys.ExecTimed(sweepQuery)
	return rt, err
}

// E6BackendsScaling regenerates MBDS claim 1: response time versus backend
// count at fixed database size.
func E6BackendsScaling() *Report {
	const id, title = "E6", "MBDS claim 1 — response time vs backends, fixed database"
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-14s %s\n", "backends", "response", "speedup")
	var base time.Duration
	ok := true
	var prev time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		rt, err := ResponseTime(n, 1)
		if err != nil {
			return failf(id, title, "sweep: %v", err)
		}
		if n == 1 {
			base = rt
		} else if float64(rt) > 0.8*float64(prev) {
			ok = false // each doubling must cut at least 20%
		}
		prev = rt
		fmt.Fprintf(&b, "%-10d %-14v %.2fx\n", n, rt, float64(base)/float64(rt))
	}
	return report(id, title, ok, b.String())
}

// E7CapacityGrowth regenerates MBDS claim 2: response-time invariance when
// the database grows proportionally with the backends.
func E7CapacityGrowth() *Report {
	const id, title = "E7", "MBDS claim 2 — response time with database ∝ backends"
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %s\n", "backends", "scale", "response")
	var times []time.Duration
	for _, n := range []int{1, 2, 4, 8} {
		rt, err := ResponseTime(n, n)
		if err != nil {
			return failf(id, title, "sweep: %v", err)
		}
		times = append(times, rt)
		fmt.Fprintf(&b, "%-10d %-10d %v\n", n, n, rt)
	}
	ok := true
	for _, rt := range times[1:] {
		ratio := float64(rt) / float64(times[0])
		if ratio > 1.2 || ratio < 0.8 {
			ok = false
		}
	}
	return report(id, title, ok, b.String())
}

// E8CrossModel verifies the thesis goal: the same question answered by the
// Daplex interface and by translated CODASYL-DML returns identical entities.
func E8CrossModel() *Report {
	const id, title = "E8", "Cross-model equivalence — Daplex vs CODASYL-DML on one functional database"
	s, err := newSession(univgen.SmallConfig(), 2)
	if err != nil {
		return failf(id, title, "setup: %v", err)
	}
	defer s.close()

	rows, err := daplexExec(s.daplex(), "FOR EACH student WHERE major = 'Computer Science' PRINT pname;")
	if err != nil {
		return failf(id, title, "daplex: %v", err)
	}
	var want []string
	for _, r := range rows {
		want = append(want, r.Values["pname"][0].AsString())
	}
	sort.Strings(want)

	tr := s.dml()
	var got []string
	step := func(line string) (*kms.Outcome, error) { return dmlExec(tr, line) }
	if _, err := step("FIND FIRST person WITHIN system_person"); err != nil {
		return failf(id, title, "dml: %v", err)
	}
	for {
		out, err := step("FIND FIRST student WITHIN person_student")
		if err != nil {
			return failf(id, title, "dml: %v", err)
		}
		if out.Found {
			g, err := step("GET major IN student")
			if err != nil {
				return failf(id, title, "dml: %v", err)
			}
			if g.Values["major"].AsString() == "Computer Science" {
				if _, err := step("FIND OWNER WITHIN person_student"); err != nil {
					return failf(id, title, "dml: %v", err)
				}
				n, err := step("GET pname IN person")
				if err != nil {
					return failf(id, title, "dml: %v", err)
				}
				got = append(got, n.Values["pname"].AsString())
			}
		}
		nxt, err := step("FIND NEXT person WITHIN system_person")
		if err != nil {
			return failf(id, title, "dml: %v", err)
		}
		if nxt.EndOfSet {
			break
		}
	}
	sort.Strings(got)
	ok := strings.Join(want, "|") == strings.Join(got, "|") && len(want) > 0
	body := fmt.Sprintf("daplex      : %v\ncodasyl-dml : %v\nequal       : %v\n", want, got, ok)
	return report(id, title, ok, body)
}

// E9SharedKernel verifies Figure 1.2's structure: multiple language
// interfaces over one kernel database system, updates mutually visible.
func E9SharedKernel() *Report {
	const id, title = "E9", "Shared kernel — updates cross language interfaces"
	s, err := newSession(univgen.SmallConfig(), 2)
	if err != nil {
		return failf(id, title, "setup: %v", err)
	}
	defer s.close()
	dap := s.daplex()
	tr := s.dml()
	if _, err := daplexExec(dap, "LET credits OF course WHERE title = 'Advanced Database' BE 9;"); err != nil {
		return failf(id, title, "let: %v", err)
	}
	for _, line := range []string{
		"MOVE 'Advanced Database' TO title IN course",
		"FIND ANY course USING title IN course",
	} {
		if _, err := dmlExec(tr, line); err != nil {
			return failf(id, title, "dml: %v", err)
		}
	}
	out, err := dmlExec(tr, "GET credits IN course")
	if err != nil {
		return failf(id, title, "get: %v", err)
	}
	ok := out.Values["credits"].AsInt() == 9
	body := fmt.Sprintf("Daplex LET credits := 9; CODASYL-DML GET sees credits = %s\n", out.Values["credits"])
	return report(id, title, ok, body)
}

// AblationIndexVsScan compares the kernel's directory-indexed access path
// against forced full-file scans.
func AblationIndexVsScan() *Report {
	const id, title = "A1", "Ablation — directory indexes vs full scans"
	timeFor := func(noIndex bool) (time.Duration, int, error) {
		db, err := univgen.Generate(scaleConfig(2))
		if err != nil {
			return 0, 0, err
		}
		cfg := mbds.DefaultConfig(2)
		cfg.NoIndexes = noIndex
		sys, err := mbds.New(db.AB.Dir, cfg)
		if err != nil {
			return 0, 0, err
		}
		defer sys.Close()
		if _, err := db.Load(sys); err != nil {
			return 0, 0, err
		}
		res, rt, err := sys.ExecTimed(sweepQuery)
		if err != nil {
			return 0, 0, err
		}
		return rt, res.Cost.RecordsExam, nil
	}
	idxT, idxExam, err := timeFor(false)
	if err != nil {
		return failf(id, title, "%v", err)
	}
	scanT, scanExam, err := timeFor(true)
	if err != nil {
		return failf(id, title, "%v", err)
	}
	ok := idxExam < scanExam
	body := fmt.Sprintf("%-10s %-14s %s\n%-10s %-14v %d\n%-10s %-14v %d\n",
		"path", "response", "records examined",
		"indexed", idxT, idxExam,
		"scan", scanT, scanExam)
	return report(id, title, ok, body)
}

// AblationDirectVsPreprocess compares the thesis's chosen strategy (the
// direct language interface: one-step in-memory schema transformation)
// against high-level preprocessing (a two-step pipeline through the textual
// network DDL, as a CODASYL-DML-to-Daplex preprocessor would require). The
// verdict is deterministic: both paths must arrive at the same network
// schema and the same kernel files and keys, and the direct path must
// allocate less per transformation. Wall-clock times are reported, not
// judged.
func AblationDirectVsPreprocess() *Report {
	const id, title = "A3", "Ablation — direct language interface vs high-level preprocessing"
	fun := mustUniv()
	const iters = 200

	direct := func() (*netmodel.Schema, *xform.ABSchema, error) {
		m, err := xform.FunToNet(fun)
		if err != nil {
			return nil, nil, err
		}
		ab, err := xform.DeriveAB(m)
		return m.Net, ab, err
	}
	// The two-step path externalises the intermediate schema as DDL text and
	// re-derives the kernel schema from the reparsed result.
	preprocess := func() (*netmodel.Schema, *xform.ABSchema, error) {
		m, err := xform.FunToNet(fun)
		if err != nil {
			return nil, nil, err
		}
		net, err := reparse(m.Net.DDL())
		if err != nil {
			return nil, nil, err
		}
		ab, err := xform.DeriveABNative(net)
		return net, ab, err
	}
	type run struct {
		wall   time.Duration
		allocs uint64 // heap allocations per transformation
		net    *netmodel.Schema
		ab     *xform.ABSchema
	}
	// measure counts allocations process-wide, so other goroutines can only
	// inflate a count: the fewest seen over single transformations is the
	// path's own.
	measure := func(path func() (*netmodel.Schema, *xform.ABSchema, error)) (run, error) {
		r := run{allocs: math.MaxUint64}
		var before, after runtime.MemStats
		for i := 0; i < iters; i++ {
			runtime.ReadMemStats(&before)
			start := time.Now()
			var err error
			if r.net, r.ab, err = path(); err != nil {
				return r, err
			}
			r.wall += time.Since(start)
			runtime.ReadMemStats(&after)
			r.allocs = min(r.allocs, after.Mallocs-before.Mallocs)
		}
		return r, nil
	}
	d, err := measure(direct)
	if err != nil {
		return failf(id, title, "direct: %v", err)
	}
	p, err := measure(preprocess)
	if err != nil {
		return failf(id, title, "preprocess: %v", err)
	}
	// The set placements legitimately differ: the DDL text drops each set's
	// provenance (ISA, function direction), which only the direct path keeps.
	same := d.net.DDL() == p.net.DDL() &&
		slices.Equal(d.ab.Dir.Files(), p.ab.Dir.Files()) && maps.Equal(d.ab.KeyAttr, p.ab.KeyAttr)
	ok := same && d.allocs < p.allocs
	body := fmt.Sprintf("direct (one-step)        : %v for %d transformations, %d allocs each\n"+
		"preprocess (two-step DDL): %v for %d transformations, %d allocs each\n"+
		"same network schema, kernel files and keys: %v\n",
		d.wall, iters, d.allocs, p.wall, iters, p.allocs, same)
	return report(id, title, ok, body)
}
