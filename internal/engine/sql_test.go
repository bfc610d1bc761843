package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// mustDB builds a DB with a small patients table used across SQL tests.
func mustDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	stmts := []string{
		`CREATE TABLE patients (id BIGINT, dataset VARCHAR, age DOUBLE, mmse DOUBLE, diagnosis VARCHAR, female BOOLEAN)`,
		`INSERT INTO patients VALUES
			(1, 'edsd', 71.5, 28, 'CN', true),
			(2, 'edsd', 68.0, 21, 'MCI', false),
			(3, 'edsd', 80.2, 14, 'AD', true),
			(4, 'ppmi', 62.3, 29, 'CN', false),
			(5, 'ppmi', 75.0, NULL, 'AD', true),
			(6, 'ppmi', 77.7, 18, 'AD', false)`,
	}
	for _, s := range stmts {
		if _, err := db.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func q(t *testing.T, db *DB, sql string) *Table {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT * FROM patients`)
	if res.NumRows() != 6 || res.NumCols() != 6 {
		t.Fatalf("dims %dx%d", res.NumRows(), res.NumCols())
	}
}

func TestWhereFilter(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id FROM patients WHERE age > 70 AND diagnosis = 'AD'`)
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}
}

func TestWhereNullSemantics(t *testing.T) {
	db := mustDB(t)
	// mmse IS NULL for patient 5; comparisons with NULL must not match.
	res := q(t, db, `SELECT id FROM patients WHERE mmse > 0`)
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5 (NULL must not satisfy >)", res.NumRows())
	}
	res = q(t, db, `SELECT id FROM patients WHERE mmse IS NULL`)
	if res.NumRows() != 1 || res.Col(0).Int64s()[0] != 5 {
		t.Fatalf("IS NULL: %v", res)
	}
	res = q(t, db, `SELECT id FROM patients WHERE mmse IS NOT NULL`)
	if res.NumRows() != 5 {
		t.Fatalf("IS NOT NULL rows = %d", res.NumRows())
	}
}

func TestProjectionExpressions(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id, age * 2 AS dbl, sqrt(age) AS r FROM patients WHERE id = 1`)
	if res.ColByName("dbl").Float64s()[0] != 143 {
		t.Fatalf("dbl = %v", res.ColByName("dbl").Float64s()[0])
	}
	if got := res.ColByName("r").Float64s()[0]; math.Abs(got-math.Sqrt(71.5)) > 1e-12 {
		t.Fatalf("sqrt = %v", got)
	}
}

func TestGlobalAggregates(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT count(*) AS n, count(mmse) AS nm, avg(age) AS m, min(age) AS lo, max(age) AS hi, sum(age) AS s FROM patients`)
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if n := res.ColByName("n").Int64s()[0]; n != 6 {
		t.Fatalf("count(*) = %d", n)
	}
	if nm := res.ColByName("nm").Int64s()[0]; nm != 5 {
		t.Fatalf("count(mmse) = %d (NULLs must be skipped)", nm)
	}
	wantMean := (71.5 + 68 + 80.2 + 62.3 + 75 + 77.7) / 6
	if m := res.ColByName("m").Float64s()[0]; math.Abs(m-wantMean) > 1e-12 {
		t.Fatalf("avg = %v, want %v", m, wantMean)
	}
	if lo := res.ColByName("lo").Float64s()[0]; lo != 62.3 {
		t.Fatalf("min = %v", lo)
	}
	if hi := res.ColByName("hi").Float64s()[0]; hi != 80.2 {
		t.Fatalf("max = %v", hi)
	}
}

func TestGroupBy(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT diagnosis, count(*) AS n, avg(age) AS m FROM patients GROUP BY diagnosis ORDER BY diagnosis`)
	if res.NumRows() != 3 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	diag, _ := res.StringColumn("diagnosis")
	if diag[0] != "AD" || diag[1] != "CN" || diag[2] != "MCI" {
		t.Fatalf("order: %v", diag)
	}
	n := res.ColByName("n").Int64s()
	if n[0] != 3 || n[1] != 2 || n[2] != 1 {
		t.Fatalf("counts: %v", n)
	}
	wantAD := (80.2 + 75 + 77.7) / 3
	if m := res.ColByName("m").Float64s()[0]; math.Abs(m-wantAD) > 1e-12 {
		t.Fatalf("AD mean = %v", m)
	}
}

func TestHaving(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT diagnosis, count(*) AS n FROM patients GROUP BY diagnosis HAVING count(*) >= 2 ORDER BY n DESC`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Col(0).StringAt(0) != "AD" {
		t.Fatalf("first group = %v", res.Col(0).StringAt(0))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id FROM patients ORDER BY age DESC LIMIT 2 OFFSET 1`)
	ids := res.Col(0).Int64s()
	if len(ids) != 2 || ids[0] != 6 || ids[1] != 5 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStddevVariance(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT stddev_samp(age) AS sd, var_samp(age) AS v FROM patients WHERE dataset = 'edsd'`)
	// ages 71.5, 68, 80.2
	mean := (71.5 + 68 + 80.2) / 3
	want := ((71.5-mean)*(71.5-mean) + (68-mean)*(68-mean) + (80.2-mean)*(80.2-mean)) / 2
	if v := res.ColByName("v").Float64s()[0]; math.Abs(v-want) > 1e-9 {
		t.Fatalf("var = %v, want %v", v, want)
	}
	if sd := res.ColByName("sd").Float64s()[0]; math.Abs(sd-math.Sqrt(want)) > 1e-9 {
		t.Fatalf("sd = %v", sd)
	}
}

func TestCorrAggregate(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE xy (x DOUBLE, y DOUBLE)`)
	q(t, db, `INSERT INTO xy VALUES (1,2), (2,4), (3,6), (4,8)`)
	res := q(t, db, `SELECT corr(x, y) AS r FROM xy`)
	if r := res.Col(0).Float64s()[0]; math.Abs(r-1) > 1e-12 {
		t.Fatalf("corr = %v, want 1", r)
	}
}

func TestMedianQuantile(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (1), (2), (3), (4)`)
	res := q(t, db, `SELECT median(x) AS m, quantile(x, 0.25) AS q1 FROM v`)
	if m := res.ColByName("m").Float64s()[0]; m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if q1 := res.ColByName("q1").Float64s()[0]; q1 != 1.75 {
		t.Fatalf("q1 = %v", q1)
	}
}

func TestCountDistinct(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT count(DISTINCT diagnosis) AS d FROM patients`)
	if d := res.Col(0).Int64s()[0]; d != 3 {
		t.Fatalf("count distinct = %d", d)
	}
}

func TestCaseWhen(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id, CASE WHEN age >= 75 THEN 'old' WHEN age >= 65 THEN 'mid' ELSE 'young' END AS band FROM patients ORDER BY id`)
	bands, _ := res.StringColumn("band")
	want := []string{"mid", "mid", "old", "young", "old", "old"}
	for i := range want {
		if bands[i] != want[i] {
			t.Fatalf("bands = %v, want %v", bands, want)
		}
	}
}

func TestInAndBetween(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id FROM patients WHERE diagnosis IN ('AD', 'MCI') ORDER BY id`)
	if res.NumRows() != 4 {
		t.Fatalf("IN rows = %d", res.NumRows())
	}
	res = q(t, db, `SELECT id FROM patients WHERE age BETWEEN 68 AND 76 ORDER BY id`)
	ids := res.Col(0).Int64s()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 5 {
		t.Fatalf("BETWEEN ids = %v", ids)
	}
	res = q(t, db, `SELECT id FROM patients WHERE diagnosis NOT IN ('AD')`)
	if res.NumRows() != 3 {
		t.Fatalf("NOT IN rows = %d", res.NumRows())
	}
}

func TestBooleanColumnFilter(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT count(*) AS n FROM patients WHERE female = true`)
	if n := res.Col(0).Int64s()[0]; n != 3 {
		t.Fatalf("female count = %d", n)
	}
}

func TestStringFunctions(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT upper(diagnosis) AS u, lower(diagnosis) AS l, length(diagnosis) AS n FROM patients WHERE id = 2`)
	if res.ColByName("u").StringAt(0) != "MCI" || res.ColByName("l").StringAt(0) != "mci" {
		t.Fatal("upper/lower wrong")
	}
	if res.ColByName("n").Int64s()[0] != 3 {
		t.Fatal("length wrong")
	}
}

func TestConcatOperator(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT dataset || '-' || diagnosis AS tag FROM patients WHERE id = 1`)
	if got := res.Col(0).StringAt(0); got != "edsd-CN" {
		t.Fatalf("concat = %q", got)
	}
}

func TestCoalesce(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT coalesce(mmse, -1.0) AS m FROM patients ORDER BY id`)
	m := res.Col(0).Float64s()
	if m[4] != -1 || m[0] != 28 {
		t.Fatalf("coalesce = %v", m)
	}
}

func TestIntegerDivisionAndModulo(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE n (a BIGINT, b BIGINT)`)
	q(t, db, `INSERT INTO n VALUES (7, 2), (7, 0)`)
	res := q(t, db, `SELECT a / b AS d, a % b AS m FROM n`)
	if res.ColByName("d").Int64s()[0] != 3 || res.ColByName("m").Int64s()[0] != 1 {
		t.Fatal("integer division wrong")
	}
	if !res.ColByName("d").IsNull(1) {
		t.Fatal("division by zero should be NULL")
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := mustDB(t)
	q(t, db, `INSERT INTO patients (id, diagnosis) VALUES (7, 'CN')`)
	res := q(t, db, `SELECT age FROM patients WHERE id = 7`)
	if !res.Col(0).IsNull(0) {
		t.Fatal("unlisted columns should be NULL")
	}
}

func TestDelete(t *testing.T) {
	db := mustDB(t)
	if _, err := db.Query(`DELETE FROM patients WHERE diagnosis = 'AD'`); err != nil {
		t.Fatal(err)
	}
	res := q(t, db, `SELECT count(*) AS n FROM patients`)
	if n := res.Col(0).Int64s()[0]; n != 3 {
		t.Fatalf("after delete: %d", n)
	}
	// Row with NULL predicate must be kept.
	db2 := mustDB(t)
	if _, err := db2.Query(`DELETE FROM patients WHERE mmse < 100`); err != nil {
		t.Fatal(err)
	}
	res = q(t, db2, `SELECT id FROM patients`)
	if res.NumRows() != 1 || res.Col(0).Int64s()[0] != 5 {
		t.Fatalf("NULL-predicate rows must survive DELETE: %d rows", res.NumRows())
	}
}

func TestDropTable(t *testing.T) {
	db := mustDB(t)
	if _, err := db.Query(`DROP TABLE patients`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT * FROM patients`); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if _, err := db.Query(`DROP TABLE IF EXISTS patients`); err != nil {
		t.Fatalf("IF EXISTS should not error: %v", err)
	}
	if _, err := db.Query(`DROP TABLE patients`); err == nil {
		t.Fatal("expected error without IF EXISTS")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELEC * FROM t`,
		`SELECT a FROM t GROUP`,
		`SELECT 'unterminated FROM t`,
		`SELECT a b c FROM t`,
		`INSERT INTO t VALUES (1`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseExprRoundTrip(t *testing.T) {
	// Every rendered expression must re-parse to the same rendering — this
	// is what lets the merge layer ship expressions to remote parts.
	exprs := []string{
		`((a + b) * 2)`,
		`(age >= 65)`,
		`(diagnosis IN ('AD', 'MCI'))`,
		`(x IS NOT NULL)`,
		`CASE WHEN (a > 1) THEN 'hi' ELSE 'lo' END`,
		`sqrt((x * x))`,
		`(NOT (a = b))`,
		`('it''s' || s)`,
	}
	for _, s := range exprs {
		e, err := ParseExpr(s)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", s, err)
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", e.String(), s, err)
		}
		if e.String() != e2.String() {
			t.Fatalf("round trip changed: %q -> %q", e.String(), e2.String())
		}
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	db := mustDB(t)
	if _, err := db.Query(`SELECT id FROM patients WHERE sum(age) > 10`); err == nil {
		t.Fatal("aggregate in WHERE must be rejected")
	}
}

func TestEmptyTableAggregates(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE e (x DOUBLE)`)
	res := q(t, db, `SELECT count(*) AS n, sum(x) AS s, avg(x) AS m FROM e`)
	if res.NumRows() != 1 {
		t.Fatalf("global aggregate over empty table must yield one row, got %d", res.NumRows())
	}
	if res.ColByName("n").Int64s()[0] != 0 {
		t.Fatal("count should be 0")
	}
	if !res.ColByName("s").IsNull(0) || !res.ColByName("m").IsNull(0) {
		t.Fatal("sum/avg over empty input should be NULL")
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE e (g VARCHAR, x DOUBLE)`)
	res := q(t, db, `SELECT g, sum(x) FROM e GROUP BY g`)
	if res.NumRows() != 0 {
		t.Fatalf("grouped aggregate over empty table must yield zero rows, got %d", res.NumRows())
	}
}

func TestTableString(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `SELECT id, diagnosis FROM patients LIMIT 1`)
	s := res.String()
	if !strings.Contains(s, "id") || !strings.Contains(s, "CN") {
		t.Fatalf("String output:\n%s", s)
	}
}

func TestQuotedIdentifierAndComment(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE t ("weird name" DOUBLE)`)
	q(t, db, `INSERT INTO t VALUES (1.5) -- trailing comment`)
	res := q(t, db, `SELECT "weird name" FROM t`)
	if res.Col(0).Float64s()[0] != 1.5 {
		t.Fatal("quoted identifier failed")
	}
}

func TestMathFunctions(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (-2.7), (4.0)`)
	res := q(t, db, `SELECT abs(x) AS a, floor(x) AS f, ceil(x) AS c, round(x) AS r, exp(0.0 * x) AS e, pow(x, 2) AS p FROM v`)
	if res.ColByName("a").Float64s()[0] != 2.7 {
		t.Fatal("abs")
	}
	if res.ColByName("f").Float64s()[0] != -3 || res.ColByName("c").Float64s()[0] != -2 {
		t.Fatal("floor/ceil")
	}
	if res.ColByName("r").Float64s()[0] != -3 {
		t.Fatal("round")
	}
	if res.ColByName("e").Float64s()[1] != 1 {
		t.Fatal("exp")
	}
	if res.ColByName("p").Float64s()[1] != 16 {
		t.Fatal("pow")
	}
	// Domain error → NULL.
	res = q(t, db, `SELECT sqrt(x) AS s, ln(x) AS l FROM v`)
	if !res.ColByName("s").IsNull(0) || !res.ColByName("l").IsNull(0) {
		t.Fatal("sqrt/ln of negative should be NULL")
	}
	if res.ColByName("s").Float64s()[1] != 2 {
		t.Fatal("sqrt(4)")
	}
}

func TestCaseWithoutElse(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (1), (10)`)
	res := q(t, db, `SELECT CASE WHEN x > 5 THEN x END AS big FROM v`)
	if !res.Col(0).IsNull(0) {
		t.Fatal("unmatched CASE without ELSE should be NULL")
	}
	if res.Col(0).Float64s()[1] != 10 {
		t.Fatal("matched CASE value wrong")
	}
}

func TestTrimAndCast(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (s VARCHAR)`)
	q(t, db, `INSERT INTO v VALUES ('  3.5  ')`)
	res := q(t, db, `SELECT CAST(trim(s) AS DOUBLE) AS x FROM v`)
	if res.Col(0).Float64s()[0] != 3.5 {
		t.Fatalf("cast(trim) = %v", res.Col(0).Value(0))
	}
}

func TestNotBetween(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (1), (5), (9)`)
	res := q(t, db, `SELECT x FROM v WHERE x NOT BETWEEN 2 AND 8`)
	if res.NumRows() != 2 {
		t.Fatalf("NOT BETWEEN rows = %d", res.NumRows())
	}
}

func TestStddevZeroVariance(t *testing.T) {
	db := NewDB()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (5), (5), (5)`)
	res := q(t, db, `SELECT stddev_samp(x) AS sd FROM v`)
	if got := res.Col(0).Float64s()[0]; got != 0 {
		t.Fatalf("sd of constant = %v", got)
	}
}

func TestQueryCount(t *testing.T) {
	db := NewDB()
	before := db.QueryCount()
	q(t, db, `CREATE TABLE v (x DOUBLE)`)
	q(t, db, `INSERT INTO v VALUES (1)`)
	q(t, db, `SELECT x FROM v`)
	if got := db.QueryCount() - before; got != 3 {
		t.Fatalf("QueryCount delta = %d, want 3", got)
	}
}

func TestTableNames(t *testing.T) {
	db := mustDB(t)
	q(t, db, `CREATE TABLE aaa (x DOUBLE)`)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "patients" {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestStringComparisonsAndOrdering(t *testing.T) {
	db := mustDB(t)
	// All six comparison operators on strings.
	res := q(t, db, `SELECT count(*) AS n FROM patients WHERE diagnosis >= 'CN' AND diagnosis <= 'MCI' AND diagnosis <> 'XX' AND diagnosis > 'AA' AND diagnosis < 'ZZ'`)
	if n := res.Col(0).Int64s()[0]; n != 3 {
		t.Fatalf("string comparisons matched %d rows", n)
	}
	// ORDER BY over strings (asc + desc) and booleans exercises every
	// compareRows branch.
	res = q(t, db, `SELECT diagnosis FROM patients ORDER BY diagnosis DESC, female ASC LIMIT 1`)
	if res.Col(0).StringAt(0) != "MCI" {
		t.Fatalf("desc first = %v", res.Col(0).StringAt(0))
	}
	res = q(t, db, `SELECT id FROM patients ORDER BY female, mmse`)
	if res.NumRows() != 6 {
		t.Fatal("bool ordering lost rows")
	}
	// NULL mmse sorts first within its bool group.
	res = q(t, db, `SELECT id FROM patients ORDER BY mmse`)
	if res.Col(0).Int64s()[0] != 5 {
		t.Fatalf("NULL should sort first, got id %d", res.Col(0).Int64s()[0])
	}
}

func joinDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	for _, s := range []string{
		`CREATE TABLE subjects (sid BIGINT, site VARCHAR, age DOUBLE)`,
		`INSERT INTO subjects VALUES (1, 'lille', 70), (2, 'lille', 65), (3, 'chuv', 80), (4, 'chuv', 75)`,
		`CREATE TABLE scans (sid BIGINT, volume DOUBLE)`,
		`INSERT INTO scans VALUES (1, 3.1), (1, 3.0), (2, 2.8), (3, 2.2), (9, 1.0)`,
	} {
		q(t, db, s)
	}
	return db
}

func TestInnerJoin(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `SELECT s.sid, s.age, c.volume FROM subjects s JOIN scans c ON s.sid = c.sid ORDER BY s.sid, c.volume`)
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", res.NumRows())
	}
	// Subject 1 matches two scans.
	ids := res.ColByName("s.sid").Int64s()
	if ids[0] != 1 || ids[1] != 1 || ids[2] != 2 || ids[3] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	vols := res.ColByName("c.volume").Float64s()
	if vols[0] != 3.0 || vols[1] != 3.1 {
		t.Fatalf("duplicate-match volumes = %v", vols[:2])
	}
	// Unmatched rows (subject 4, scan sid=9) are dropped.
}

func TestLeftJoin(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `SELECT s.sid, c.volume FROM subjects s LEFT JOIN scans c ON s.sid = c.sid ORDER BY s.sid`)
	if res.NumRows() != 5 { // 2+1+1 matches + subject 4 padded
		t.Fatalf("rows = %d, want 5", res.NumRows())
	}
	last := res.NumRows() - 1
	if res.ColByName("s.sid").Int64s()[last] != 4 {
		t.Fatal("subject 4 missing from LEFT JOIN")
	}
	if !res.ColByName("c.volume").IsNull(last) {
		t.Fatal("unmatched right side should be NULL")
	}
}

func TestJoinAggregation(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `SELECT s.site AS site, count(*) AS n, avg(c.volume) AS m FROM subjects s JOIN scans c ON s.sid = c.sid GROUP BY s.site ORDER BY site`)
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	sites, _ := res.StringColumn("site")
	if sites[0] != "chuv" || sites[1] != "lille" {
		t.Fatalf("sites = %v", sites)
	}
	if n := res.ColByName("n").Int64s()[1]; n != 3 {
		t.Fatalf("lille scan count = %d", n)
	}
	wantLille := (3.1 + 3.0 + 2.8) / 3
	if m := res.ColByName("m").Float64s()[1]; math.Abs(m-wantLille) > 1e-12 {
		t.Fatalf("lille mean = %v", m)
	}
}

func TestJoinUnqualifiedResolution(t *testing.T) {
	db := joinDB(t)
	// age/volume are unambiguous; sid is ambiguous and must error.
	res := q(t, db, `SELECT age, volume FROM subjects s JOIN scans c ON s.sid = c.sid WHERE age > 60 ORDER BY volume`)
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if _, err := db.Query(`SELECT sid FROM subjects s JOIN scans c ON s.sid = c.sid`); err == nil {
		t.Fatal("ambiguous unqualified column must error")
	}
}

func TestJoinResidualCondition(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `SELECT s.sid FROM subjects s JOIN scans c ON s.sid = c.sid AND c.volume > 2.9 ORDER BY s.sid`)
	if res.NumRows() != 2 { // only subject 1's two big scans
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestJoinErrors(t *testing.T) {
	db := joinDB(t)
	if _, err := db.Query(`SELECT * FROM subjects s JOIN ghost g ON s.sid = g.sid`); err == nil {
		t.Fatal("unknown join table must error")
	}
	if _, err := db.Query(`SELECT * FROM subjects s JOIN scans c ON s.age > 1`); err == nil {
		t.Fatal("non-equi ON must error")
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := joinDB(t)
	q(t, db, `CREATE TABLE labels (site VARCHAR, label VARCHAR)`)
	q(t, db, `INSERT INTO labels VALUES ('lille', 'CHRU Lille'), ('chuv', 'CHUV Lausanne')`)
	res := q(t, db, `SELECT l.label AS lab, count(*) AS n FROM subjects s JOIN scans c ON s.sid = c.sid JOIN labels l ON s.site = l.site GROUP BY l.label ORDER BY lab`)
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	labs, _ := res.StringColumn("lab")
	if labs[0] != "CHRU Lille" && labs[1] != "CHRU Lille" {
		t.Fatalf("labels = %v", labs)
	}
}

// TestQuotedIdentifierEscapes: "" inside a quoted identifier is an escaped
// double quote (the convention quoteIdent on the federation side emits).
func TestQuotedIdentifierEscapes(t *testing.T) {
	db := NewDB()
	tab := NewTable(Schema{{`he said "hi"`, Float64}, {"plain", Float64}})
	if err := tab.AppendRow(1.5, 2.5); err != nil {
		t.Fatal(err)
	}
	db.RegisterTable("t", tab)
	res := q(t, db, `SELECT "he said ""hi""" AS v, "plain" AS p FROM t`)
	if res.NumRows() != 1 || res.Col(0).Float64s()[0] != 1.5 || res.Col(1).Float64s()[0] != 2.5 {
		t.Fatalf("escaped quoted identifier misread: %v", res.Col(0).Value(0))
	}
	if _, err := db.Query(`SELECT "oops FROM t`); err == nil {
		t.Fatal("unterminated quoted identifier must error")
	}
	if _, err := db.Query(`SELECT "trailing"" FROM t`); err == nil {
		t.Fatal("identifier ending in an escaped quote with no closer must error")
	}
}

// TestIntCompareExact: 2^53 and 2^53+1 are distinct BIGINTs but one
// float64, so INT×INT comparisons must not go through float.
func TestIntCompareExact(t *testing.T) {
	db := NewDB()
	tab := NewTable(Schema{{Name: "id", Type: Int64}})
	for _, v := range []int64{1 << 53, 1<<53 + 1, 1<<53 + 2} {
		if err := tab.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("t", tab)
	for sql, want := range map[string][]int64{
		`SELECT id FROM t WHERE id = 9007199254740993`:  {1<<53 + 1},
		`SELECT id FROM t WHERE id <> 9007199254740993`: {1 << 53, 1<<53 + 2},
		`SELECT id FROM t WHERE id < 9007199254740993`:  {1 << 53},
		`SELECT id FROM t WHERE id >= 9007199254740993`: {1<<53 + 1, 1<<53 + 2},
	} {
		res := q(t, db, sql)
		got := res.Col(0).Int64s()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", sql, got, want)
		}
	}
}
