package mlds

// One benchmark per experiment row of DESIGN.md: the schema figures (E1–E4),
// the Chapter VI translation path (E5), the two MBDS performance sweeps
// (E6–E7, which report the simulated kernel response time as sim-ms/op), the
// cross-model goal (E8–E9), and the design-choice ablations.

import (
	"context"
	"fmt"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/dapkms"
	"mlds/internal/daplex"
	"mlds/internal/kc"
	"mlds/internal/kms"
	"mlds/internal/mbds"
	"mlds/internal/netddl"
	"mlds/internal/univ"
	"mlds/internal/univgen"
	"mlds/internal/xform"
)

func BenchmarkE1_DaplexParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := daplex.ParseSchema(univ.SchemaDDL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_SchemaTransform(b *testing.B) {
	b.ReportAllocs()
	fun := univ.Schema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xform.FunToNet(fun); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_ABMapping(b *testing.B) {
	b.ReportAllocs()
	m, err := xform.FunToNet(univ.Schema())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xform.DeriveAB(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_EntitySubtypeTransform(b *testing.B) {
	b.ReportAllocs()
	fun, err := daplex.ParseSchema(`
DATABASE figures IS
ENTITY person IS
    pname : STRING(30);
END ENTITY;
SUBTYPE student OF person IS
    major : STRING(20);
END SUBTYPE;
END DATABASE;`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xform.FunToNet(fun); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSession loads a University instance onto n backends.
func benchSession(b *testing.B, cfg univgen.Config, backends int) (*univgen.Database, *mbds.System, *kc.Controller) {
	b.Helper()
	db, err := univgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := db.NewKernel(backends)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	if _, err := db.Load(sys); err != nil {
		b.Fatal(err)
	}
	ctrl := kc.New(sys)
	ctrl.SeedKeys(db.Instance.MaxKey())
	return db, sys, ctrl
}

func benchScale(scale int) univgen.Config {
	cfg := univgen.SmallConfig()
	cfg.Students *= 24 * scale
	cfg.Faculty *= 8 * scale
	cfg.Courses *= 8 * scale
	return cfg
}

func BenchmarkE5_DMLTranslate(b *testing.B) {
	b.ReportAllocs()
	db, _, ctrl := benchSession(b, univgen.SmallConfig(), 2)
	ctx := context.Background()
	tr := kms.NewFunctional(db.Mapping, db.AB, ctrl)
	mv, _ := codasyl.ParseStmt("MOVE 'Advanced Database' TO title IN course")
	if _, err := tr.ExecCtx(ctx, mv); err != nil {
		b.Fatal(err)
	}
	find, _ := codasyl.ParseStmt("FIND ANY course USING title IN course")
	get, _ := codasyl.ParseStmt("GET course")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ExecCtx(ctx, find); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.ExecCtx(ctx, get); err != nil {
			b.Fatal(err)
		}
	}
}

var sweepQuery = abdl.NewRetrieve(abdm.And(
	abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("student")},
	abdm.Predicate{Attr: "major", Op: abdm.OpEq, Val: abdm.String("Computer Science")},
), "gpa")

// BenchmarkE6_BackendsScaling: fixed database, backends ∈ {1,2,4,8}. The
// sim-ms/op metric is the modelled MBDS response time — the claim-1 curve.
func BenchmarkE6_BackendsScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			_, sys, _ := benchSession(b, benchScale(1), n)
			b.ResetTimer()
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rt, err := sys.ExecTimed(sweepQuery)
				if err != nil {
					b.Fatal(err)
				}
				sim += float64(rt.Milliseconds())
			}
			b.ReportMetric(sim/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkE7_CapacityGrowth: database grows ∝ backends; sim-ms/op should be
// invariant — the claim-2 line.
func BenchmarkE7_CapacityGrowth(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			_, sys, _ := benchSession(b, benchScale(n), n)
			b.ResetTimer()
			var sim float64
			for i := 0; i < b.N; i++ {
				_, rt, err := sys.ExecTimed(sweepQuery)
				if err != nil {
					b.Fatal(err)
				}
				sim += float64(rt.Milliseconds())
			}
			b.ReportMetric(sim/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkE8_CrossModel times the same retrieval through both interfaces.
func BenchmarkE8_CrossModel(b *testing.B) {
	db, _, ctrl := benchSession(b, univgen.SmallConfig(), 2)
	ctx := context.Background()
	b.Run("daplex", func(b *testing.B) {
		b.ReportAllocs()
		dap := dapkms.New(db.Mapping, db.AB, ctrl)
		st, err := daplex.ParseDML("FOR EACH student WHERE major = 'Computer Science' PRINT pname;")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dap.ExecCtx(ctx, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codasyl-dml", func(b *testing.B) {
		b.ReportAllocs()
		tr := kms.NewFunctional(db.Mapping, db.AB, ctrl)
		mv, _ := codasyl.ParseStmt("MOVE 'Computer Science' TO major IN student")
		if _, err := tr.ExecCtx(ctx, mv); err != nil {
			b.Fatal(err)
		}
		find, _ := codasyl.ParseStmt("FIND ANY student USING major IN student")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.ExecCtx(ctx, find); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9_SharedKernel interleaves Daplex updates with DML reads over
// one kernel.
func BenchmarkE9_SharedKernel(b *testing.B) {
	b.ReportAllocs()
	db, _, ctrl := benchSession(b, univgen.SmallConfig(), 2)
	ctx := context.Background()
	dap := dapkms.New(db.Mapping, db.AB, ctrl)
	tr := kms.NewFunctional(db.Mapping, db.AB, ctrl)
	let, err := daplex.ParseDML("LET credits OF course WHERE title = 'Advanced Database' BE 9;")
	if err != nil {
		b.Fatal(err)
	}
	mv, _ := codasyl.ParseStmt("MOVE 'Advanced Database' TO title IN course")
	if _, err := tr.ExecCtx(ctx, mv); err != nil {
		b.Fatal(err)
	}
	find, _ := codasyl.ParseStmt("FIND ANY course USING title IN course")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dap.ExecCtx(ctx, let); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.ExecCtx(ctx, find); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_IndexVsScan compares the indexed access path with
// forced full scans.
func BenchmarkAblation_IndexVsScan(b *testing.B) {
	for _, noIndex := range []bool{false, true} {
		name := "indexed"
		if noIndex {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			db, err := univgen.Generate(benchScale(2))
			if err != nil {
				b.Fatal(err)
			}
			cfg := mbds.DefaultConfig(2)
			cfg.NoIndexes = noIndex
			sys, err := mbds.New(db.AB.Dir, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(sys.Close)
			if _, err := db.Load(sys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Exec(sweepQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ParallelVsSerial compares broadcast dispatch modes.
func BenchmarkAblation_ParallelVsSerial(b *testing.B) {
	for _, serial := range []bool{false, true} {
		name := "parallel"
		if serial {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			db, err := univgen.Generate(benchScale(2))
			if err != nil {
				b.Fatal(err)
			}
			cfg := mbds.DefaultConfig(4)
			cfg.Serial = serial
			sys, err := mbds.New(db.AB.Dir, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(sys.Close)
			if _, err := db.Load(sys); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Exec(sweepQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DirectVsPreprocess compares the one-step schema
// transformation against the two-step textual pipeline.
func BenchmarkAblation_DirectVsPreprocess(b *testing.B) {
	fun := univ.Schema()
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := xform.FunToNet(fun)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xform.DeriveAB(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("preprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := xform.FunToNet(fun)
			if err != nil {
				b.Fatal(err)
			}
			net, err := reparseDDL(m.Net.DDL())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := xform.DeriveABNative(net); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// reparseDDL round-trips network DDL text for the preprocessing ablation.
func reparseDDL(ddl string) (*NetworkSchema, error) { return netddl.Parse(ddl) }

// BenchmarkE10_FiveInterfaces runs one statement per language interface over
// prebuilt sessions — the Figure 1.2 round trip.
func BenchmarkE10_FiveInterfaces(b *testing.B) {
	b.ReportAllocs()
	sys := New(KernelWith(2))
	b.Cleanup(sys.Close)
	fdb, err := sys.CreateFunctional("university", UniversityDDL)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := PopulateUniversity(fdb, SmallUniversity()); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);"); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.CreateHierarchical("school", "DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\n"); err != nil {
		b.Fatal(err)
	}
	dap, _ := sys.Open("university", "daplex")
	dml, _ := sys.Open("university", "dml")
	sq, _ := sys.Open("shop", "sql")
	dl, _ := sys.Open("school", "dli")
	if _, err := sq.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 1)"); err != nil {
		b.Fatal(err)
	}
	if _, err := dl.Execute("ISRT dept (dname = 'CS')"); err != nil {
		b.Fatal(err)
	}
	if _, err := dml.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dap.Execute("FOR EACH department PRINT dname;"); err != nil {
			b.Fatal(err)
		}
		if _, err := dml.Execute("FIND ANY course USING title IN course"); err != nil {
			b.Fatal(err)
		}
		if _, err := sq.Execute("SELECT COUNT(*) FROM emp"); err != nil {
			b.Fatal(err)
		}
		if _, err := dl.Execute("GU dept (dname = 'CS')"); err != nil {
			b.Fatal(err)
		}
		if _, err := fdb.ExecABDL("RETRIEVE ((FILE = course)) (COUNT(title))"); err != nil {
			b.Fatal(err)
		}
	}
}
