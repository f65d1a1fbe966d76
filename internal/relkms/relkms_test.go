package relkms

import (
	"context"
	"strings"
	"testing"

	"mlds/internal/abdm"
	"mlds/internal/kc"
	"mlds/internal/mbds"
	"mlds/internal/sql"
)

// execText parses one statement and executes it, as a session does.
func execText(i *Interface, src string) (*ResultSet, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return i.ExecCtx(context.Background(), st)
}

const shopDDL = `
CREATE TABLE dept (
    dname CHAR(20) NOT NULL UNIQUE,
    floor INTEGER
);
CREATE TABLE emp (
    ename CHAR(20) NOT NULL,
    dept CHAR(20),
    pay FLOAT
);
`

func newInterface(t *testing.T) *Interface {
	t.Helper()
	schema, err := sql.ParseDDL("shop", shopDDL)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DeriveAB(schema)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return New(schema, kc.New(sys))
}

func exec(t *testing.T, i *Interface, src string) *ResultSet {
	t.Helper()
	rs, err := execText(i, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rs
}

func loadShop(t *testing.T, i *Interface) {
	t.Helper()
	stmts := []string{
		"INSERT INTO dept (dname, floor) VALUES ('CS', 2)",
		"INSERT INTO dept (dname, floor) VALUES ('EE', 3)",
		"INSERT INTO emp (ename, dept, pay) VALUES ('Ann', 'CS', 900.0)",
		"INSERT INTO emp (ename, dept, pay) VALUES ('Bob', 'CS', 800.0)",
		"INSERT INTO emp (ename, dept, pay) VALUES ('Cey', 'EE', 950.0)",
	}
	for _, s := range stmts {
		exec(t, i, s)
	}
}

func TestDeriveABTemplates(t *testing.T) {
	schema, _ := sql.ParseDDL("shop", shopDDL)
	dir, err := DeriveAB(schema)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, ok := dir.FileTemplate("emp")
	if !ok || len(tmpl) != 3 {
		t.Fatalf("emp template = %v", tmpl)
	}
	if k, _ := dir.AttrKind("pay"); k != abdm.KindFloat {
		t.Errorf("pay kind = %v", k)
	}
}

func TestSelectWhereOrderBy(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "SELECT ename, pay FROM emp WHERE dept = 'CS' ORDER BY pay DESC")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].AsString() != "Ann" || rs.Rows[1][0].AsString() != "Bob" {
		t.Errorf("order wrong: %v", rs.Rows)
	}
	if rs.Columns[0] != "ename" || rs.Columns[1] != "pay" {
		t.Errorf("columns = %v", rs.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "SELECT * FROM dept ORDER BY dname")
	if len(rs.Columns) != 2 || len(rs.Rows) != 2 {
		t.Fatalf("rs = %+v", rs)
	}
	if rs.Rows[0][0].AsString() != "CS" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSelectDisjunction(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "SELECT ename FROM emp WHERE pay > 900 OR dept = 'CS'")
	if len(rs.Rows) != 3 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSelectAggregates(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "SELECT COUNT(*), AVG(pay), MAX(pay) FROM emp")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	row := rs.Rows[0]
	if row[0].AsInt() != 3 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].AsFloat() != (900.0+800.0+950.0)/3 {
		t.Errorf("avg = %v", row[1])
	}
	if row[2].AsFloat() != 950.0 {
		t.Errorf("max = %v", row[2])
	}
}

func TestSelectGroupBy(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	counts := map[string]int64{}
	for _, row := range rs.Rows {
		counts[row[0].AsString()] = row[len(row)-1].AsInt()
	}
	if counts["CS"] != 2 || counts["EE"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestInsertConstraints(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	if _, err := execText(i, "INSERT INTO dept (dname, floor) VALUES ('CS', 9)"); err == nil || !strings.Contains(err.Error(), "UNIQUE") {
		t.Errorf("unique violation: %v", err)
	}
	if _, err := execText(i, "INSERT INTO dept (floor) VALUES (1)"); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("not-null violation: %v", err)
	}
	if _, err := execText(i, "INSERT INTO dept (nosuch) VALUES (1)"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := execText(i, "INSERT INTO dept (dname, floor) VALUES ('X', 'high')"); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestInsertDefaultsNull(t *testing.T) {
	i := newInterface(t)
	exec(t, i, "INSERT INTO emp (ename) VALUES ('Solo')")
	rs := exec(t, i, "SELECT ename, dept, pay FROM emp WHERE ename = 'Solo'")
	if len(rs.Rows) != 1 || !rs.Rows[0][1].IsNull() || !rs.Rows[0][2].IsNull() {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	i := newInterface(t)
	loadShop(t, i)
	rs := exec(t, i, "UPDATE emp SET pay = 1000.0 WHERE dept = 'CS'")
	if rs.Count != 2 {
		t.Fatalf("updated %d", rs.Count)
	}
	rows := exec(t, i, "SELECT ename FROM emp WHERE pay = 1000.0")
	if len(rows.Rows) != 2 {
		t.Errorf("rows = %v", rows.Rows)
	}
	// NOT NULL enforcement on update.
	if _, err := execText(i, "UPDATE emp SET ename = NULL"); err == nil {
		t.Error("NOT NULL update accepted")
	}
	del := exec(t, i, "DELETE FROM emp WHERE dept = 'EE'")
	if del.Count != 1 {
		t.Errorf("deleted %d", del.Count)
	}
	left := exec(t, i, "SELECT COUNT(*) FROM emp")
	if left.Rows[0][0].AsInt() != 2 {
		t.Errorf("remaining = %v", left.Rows)
	}
}

func TestIntFloatCoercion(t *testing.T) {
	i := newInterface(t)
	// pay is FLOAT; an integer literal must coerce.
	exec(t, i, "INSERT INTO emp (ename, pay) VALUES ('N', 700)")
	rs := exec(t, i, "SELECT pay FROM emp WHERE pay = 700")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Kind() != abdm.KindFloat {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	i := newInterface(t)
	if _, err := execText(i, "SELECT * FROM nosuch"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := execText(i, "SELECT nosuch FROM emp"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := execText(i, "SELECT ename FROM emp WHERE nosuch = 1"); err == nil {
		t.Error("unknown where column accepted")
	}
	if _, err := execText(i, "SELECT ename FROM emp ORDER BY pay"); err == nil {
		t.Error("ORDER BY outside select list accepted")
	}
}
