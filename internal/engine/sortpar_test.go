package engine

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// ORDER BY equivalence: the morsel-run sort + pairwise merge must produce
// bit-identical output at every parallelism degree, and that output must
// be the stable sort under the engine's total order — NULLs first, NaN
// above every number, NaN == NaN, -0.0 == +0.0, int64 compared exactly.

// buildSortFixture registers a table whose sort keys hit every awkward
// float, int64 and NULL case, with heavy duplication so tie-breaking is
// exercised. k clusters around 2^53, where neighbouring int64 values share
// one float64.
func buildSortFixture(t *testing.T, db *DB, rows int) {
	t.Helper()
	tab := NewTable(Schema{
		{Name: "id", Type: Int64},
		{Name: "x", Type: Float64},
		{Name: "s", Type: String},
		{Name: "k", Type: Int64},
	})
	seed := uint64(99)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	for i := 0; i < rows; i++ {
		var x any = float64(next()%997) / 31.0
		switch i % 37 {
		case 0:
			x = math.NaN()
		case 5:
			x = math.Inf(1)
		case 11:
			x = math.Inf(-1)
		case 17:
			x = math.Copysign(0, -1) // -0.0 sorts equal to +0.0; bits must survive
		case 23:
			x = 0.0
		}
		if i%13 == 0 {
			x = nil
		}
		var s any = fmt.Sprintf("g%d", next()%7)
		if i%17 == 0 {
			s = nil
		}
		var k any = int64(1<<53) + int64(next()%5) - 2
		switch {
		case i%19 == 0:
			k = nil
		case i%29 == 0:
			k = int64(math.MinInt64) + int64(i%3)
		case i%31 == 0:
			k = int64(math.MaxInt64) - int64(i%3)
		}
		if err := tab.AppendRow(int64(i), x, s, k); err != nil {
			t.Fatal(err)
		}
	}
	db.RegisterTable("st", tab)
}

func TestParallelSortEquivalence(t *testing.T) {
	queries := []string{
		`SELECT id, x, s FROM st ORDER BY x`,
		`SELECT id, x, s FROM st ORDER BY x DESC`,
		`SELECT id, x, s FROM st ORDER BY s, x DESC`,
		`SELECT x, s FROM st ORDER BY s DESC, x`,
		`SELECT id, x FROM st ORDER BY x LIMIT 100`,
		`SELECT s, avg(x) AS m, count(*) AS n FROM st GROUP BY s ORDER BY m DESC, s`,
		`SELECT id, k FROM st ORDER BY k`,
		`SELECT id, k FROM st ORDER BY k DESC`,
		`SELECT id, k, s FROM st ORDER BY s DESC, k`,
		`SELECT id, k FROM st ORDER BY k LIMIT 100`,
		`SELECT id, k FROM st ORDER BY k DESC LIMIT 100 OFFSET 7`,
		`SELECT k, count(*) AS n FROM st GROUP BY k ORDER BY k DESC`,
	}
	degrees := []int{1, 2, 4, runtime.NumCPU()}
	dbs := make([]*DB, len(degrees))
	for i, d := range degrees {
		// Small morsels force many runs (and several merge rounds) even at
		// this fixture size.
		dbs[i] = NewDB(WithParallelism(d), WithMorselSize(256))
		buildSortFixture(t, dbs[i], 5000)
	}
	for _, sql := range queries {
		base, err := dbs[0].Query(sql)
		if err != nil {
			t.Fatalf("%s: serial: %v", sql, err)
		}
		for i := 1; i < len(dbs); i++ {
			got, err := dbs[i].Query(sql)
			if err != nil {
				t.Fatalf("%s: par%d: %v", sql, degrees[i], err)
			}
			tablesIdentical(t, sql, base, got, "par1", fmt.Sprintf("par%d", degrees[i]))
		}
	}
}

func TestParallelSortNaNAndNullPlacement(t *testing.T) {
	db := NewDB(WithParallelism(4), WithMorselSize(64))
	buildSortFixture(t, db, 1000)
	res, err := db.Query(`SELECT x FROM st ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Col(0)
	// Ascending total order: NULL block, then numbers (-Inf..+Inf), then NaN.
	zone := 0 // 0 = nulls, 1 = numbers, 2 = nans
	prev := math.Inf(-1)
	for i := 0; i < v.Len(); i++ {
		switch {
		case v.IsNull(i):
			if zone != 0 {
				t.Fatalf("row %d: NULL after non-NULL", i)
			}
		case math.IsNaN(v.Float64s()[i]):
			zone = 2
		default:
			if zone == 2 {
				t.Fatalf("row %d: number after NaN block", i)
			}
			if zone == 0 {
				zone = 1
				prev = math.Inf(-1)
			}
			if x := v.Float64s()[i]; x < prev {
				t.Fatalf("row %d: %v < previous %v", i, x, prev)
			} else {
				prev = x
			}
		}
	}
}

func TestParallelSortExplainDegree(t *testing.T) {
	db := NewDB(WithParallelism(4), WithMorselSize(128))
	buildSortFixture(t, db, 2000)
	res, err := db.Query(`EXPLAIN ANALYZE SELECT x FROM st ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for i := 0; i < res.NumRows(); i++ {
		plan = append(plan, res.Col(0).StringAt(i))
	}
	found := false
	for _, line := range plan {
		if strings.Contains(line, "order") && strings.Contains(line, "par=4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sort node with par=4 in plan:\n%s", strings.Join(plan, "\n"))
	}
}

// refCompare is the test-local statement of the engine's ORDER BY total
// order over per-row Go values (nil = NULL).
func refCompare(x, y any) int {
	switch {
	case x == nil && y == nil:
		return 0
	case x == nil:
		return -1
	case y == nil:
		return 1
	}
	switch a := x.(type) {
	case int64:
		return cmp.Compare(a, y.(int64))
	case float64:
		b := y.(float64)
		na, nb := math.IsNaN(a), math.IsNaN(b)
		switch {
		case na && nb:
			return 0
		case na:
			return 1
		case nb:
			return -1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case string:
		return strings.Compare(a, y.(string))
	case bool:
		b := y.(bool)
		switch {
		case a == b:
			return 0
		case !a:
			return -1
		}
		return 1
	}
	panic(fmt.Sprintf("refCompare: %T", x))
}

type refKey struct {
	col  int
	desc bool
}

// refSort returns rows stably sorted by keys.
func refSort(rows [][]any, keys []refKey) [][]any {
	out := append([][]any(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c := refCompare(out[i][k.col], out[j][k.col])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func tableRows(tab *Table) [][]any {
	rows := make([][]any, tab.NumRows())
	for i := range rows {
		rows[i] = make([]any, tab.NumCols())
		for j := range rows[i] {
			rows[i][j] = tab.Col(j).Value(i)
		}
	}
	return rows
}

func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// TestSortMatchesReference checks full sorts and top-k (with and without
// OFFSET), ASC and DESC, over every key type at every degree against a
// stable sort of the unsorted rows. The int64 cases order 2^53 before
// 2^53+1, which share one float64.
func TestSortMatchesReference(t *testing.T) {
	cols := []string{"id", "x", "s", "k"}
	cases := []struct {
		keys          []refKey
		limit, offset int
	}{
		{keys: []refKey{{col: 3}}, limit: -1},
		{keys: []refKey{{col: 3, desc: true}}, limit: -1},
		// Past the NULL and MinInt64/MaxInt64 rows: the window lies in the
		// 2^53 cluster.
		{keys: []refKey{{col: 3}}, limit: 400, offset: 1000},
		{keys: []refKey{{col: 3, desc: true}}, limit: 400, offset: 300},
		{keys: []refKey{{col: 1}}, limit: -1},
		{keys: []refKey{{col: 1, desc: true}}, limit: 25},
		{keys: []refKey{{col: 2, desc: true}, {col: 3}}, limit: -1},
		{keys: []refKey{{col: 2}, {col: 1, desc: true}}, limit: 60, offset: 3},
	}
	for _, d := range []int{1, 2, 4, runtime.NumCPU()} {
		db := NewDB(WithParallelism(d), WithMorselSize(256))
		buildSortFixture(t, db, 3000)
		all, err := db.Query(`SELECT id, x, s, k FROM st`)
		if err != nil {
			t.Fatal(err)
		}
		rows := tableRows(all)
		for _, c := range cases {
			var order []string
			for _, k := range c.keys {
				o := cols[k.col]
				if k.desc {
					o += " DESC"
				}
				order = append(order, o)
			}
			sql := "SELECT id, x, s, k FROM st ORDER BY " + strings.Join(order, ", ")
			want := refSort(rows, c.keys)
			if c.limit >= 0 {
				sql += fmt.Sprintf(" LIMIT %d OFFSET %d", c.limit, c.offset)
				want = want[c.offset : c.offset+c.limit]
			}
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("par%d %s: %v", d, sql, err)
			}
			gotRows := tableRows(got)
			if len(gotRows) != len(want) {
				t.Fatalf("par%d %s: %d rows, want %d", d, sql, len(gotRows), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if !sameValue(gotRows[i][j], want[i][j]) {
						t.Fatalf("par%d %s: row %d = %v, want %v", d, sql, i, gotRows[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortIntAllocationBound keeps an INT-key sort's allocation linear in
// its input: the typed keys are pulled out once, and comparisons allocate
// nothing.
func TestSortIntAllocationBound(t *testing.T) {
	const maxBytesPerRow = 64
	for _, rows := range []int{4000, 16000} {
		db := NewDB(WithParallelism(1))
		tab := NewTable(Schema{{Name: "id", Type: Int64}, {Name: "v", Type: Int64}})
		seed := uint64(7)
		for i := 0; i < rows; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			if err := tab.AppendRow(int64(i), int64(seed>>11)); err != nil {
				t.Fatal(err)
			}
		}
		db.RegisterTable("t", tab)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.Query(`SELECT id, v FROM t ORDER BY v`)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != rows {
			t.Fatalf("%d rows, want %d", res.NumRows(), rows)
		}
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); per > maxBytesPerRow {
			t.Fatalf("ORDER BY an INT key over %d rows allocated %.0f B/row, bound %d", rows, per, maxBytesPerRow)
		} else {
			t.Logf("%d rows: %.0f B/row", rows, per)
		}
	}
}
