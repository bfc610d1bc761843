package engine

import (
	"cmp"
	"slices"
	"strings"
)

// One sorter serves every ORDER BY: full sorts at every parallelism degree,
// both steps of top-k, and the order→limit tail of aggregate, merge and
// spill-join statements. Keys are evaluated and type-resolved once per
// sorted table, so a comparison reads typed payload slices and never
// allocates. Rows are sorted in morsel runs on the shared worker pool and
// the runs merged pairwise; degree 1 is the same code with the runs taken
// in turn. Key ties break on the input row index, which makes the order
// total: the output is the unique stable permutation at every degree, and
// a top-k cut keeps exactly that permutation's first k rows.

// sortKey is one ORDER BY key's column, pulled out of its vector once.
// Exactly one payload slice is set, per typ.
type sortKey struct {
	typ   Type
	desc  bool
	valid *Bitmap // nil = all valid
	i64   []int64
	f64   []float64
	b     []bool
	codes []int32
	strs  []string // the dictionary values the codes index
}

// sortKeysOf evaluates the ORDER BY keys over t.
func sortKeysOf(keys []OrderItem, t *Table) ([]sortKey, error) {
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		v, err := Eval(k.Expr, t)
		if err != nil {
			return nil, err
		}
		out[i] = sortKey{typ: v.typ, desc: k.Desc, valid: v.valid,
			i64: v.i64, f64: v.f64, b: v.b, codes: v.codes}
		if v.dict != nil {
			out[i].strs = v.dict.values
		}
	}
	return out, nil
}

// compare orders rows a and b under the key's total order: NULLs first;
// int64 exactly; floats numerically with NaN after +Inf, NaN tying NaN and
// −0.0 tying +0.0 (the gather keeps each row's own bits); strings by
// dictionary value; bools false before true. DESC reverses all of it.
func (k *sortKey) compare(a, b int32) int {
	c := 0
	if na, nb := !k.valid.Get(int(a)), !k.valid.Get(int(b)); na || nb {
		c = boolCompare(nb, na)
	} else {
		switch k.typ {
		case Int64:
			c = cmp.Compare(k.i64[a], k.i64[b])
		case Float64:
			x, y := k.f64[a], k.f64[b]
			switch {
			case x < y:
				c = -1
			case x > y:
				c = 1
			case x == y, x != x && y != y:
			case x != x:
				c = 1
			default:
				c = -1
			}
		case String:
			if ca, cb := k.codes[a], k.codes[b]; ca != cb {
				c = strings.Compare(k.strs[ca], k.strs[cb])
			}
		case Bool:
			c = boolCompare(k.b[a], k.b[b])
		}
	}
	if k.desc {
		return -c
	}
	return c
}

// boolCompare orders false before true.
func boolCompare(x, y bool) int {
	switch {
	case x == y:
		return 0
	case y:
		return -1
	default:
		return 1
	}
}

// sortPerm returns the permutation that orders t's rows by keys, cut to
// its first k rows when k >= 0. Each morsel's rows sort as one run (and
// keep at most k); adjacent runs then merge pairwise in rounds, the pairs
// of a round concurrently. Pairing is by run index, so the merge tree —
// and with the total order, the output — is independent of scheduling.
// sg (nullable) receives the morsel count and fan-out degree for EXPLAIN.
func (ec *ExecContext) sortPerm(keys []OrderItem, t *Table, k int, sg *stage) ([]int32, error) {
	sk, err := sortKeysOf(keys, t)
	if err != nil {
		return nil, err
	}
	order := func(a, b int32) int {
		for i := range sk {
			if c := sk[i].compare(a, b); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	}
	n := t.NumRows()
	ms := ec.morselsOf(n)
	idx := make([]int32, n)
	runs := make([][]int32, len(ms))
	node := sg.planNode()
	if err := ec.parallelFor(len(ms), func(mi int) error {
		run := idx[ms[mi].lo:ms[mi].hi]
		for i := range run {
			run[i] = int32(ms[mi].lo + i)
		}
		slices.SortFunc(run, order)
		if k >= 0 && len(run) > k {
			run = run[:k]
		}
		runs[mi] = run
		node.AddMorsels(1)
		return nil
	}); err != nil {
		return nil, err
	}
	sg.setParallelism(ec.degreeFor(len(ms)))
	for len(runs) > 1 {
		next := make([][]int32, (len(runs)+1)/2)
		if err := ec.parallelFor(len(next), func(i int) error {
			next[i] = runs[2*i]
			if 2*i+1 < len(runs) {
				next[i] = mergeRuns(runs[2*i], runs[2*i+1], k, order)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		runs = next
	}
	if len(runs) == 0 {
		return idx, nil
	}
	return runs[0], nil
}

// mergeRuns merges two sorted runs, keeping at most k rows when k >= 0.
func mergeRuns(a, b []int32, k int, order func(x, y int32) int) []int32 {
	n := len(a) + len(b)
	if k >= 0 && n > k {
		n = k
	}
	out := make([]int32, 0, n)
	i, j := 0, 0
	for len(out) < n {
		if j < len(b) && (i == len(a) || order(b[j], a[i]) < 0) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	return out
}

// limitRows is the number of leading sorted rows a statement can return,
// limit+offset, or -1 when it has no LIMIT.
func limitRows(st *SelectStmt) int {
	if st.Limit < 0 {
		return -1
	}
	return st.Limit + st.Offset
}

// execOrder runs the "order" stage: t sorted by st's ORDER BY keys, cut to
// the rows its LIMIT can reach.
func execOrder(ec *ExecContext, st *SelectStmt, t *Table, qs *QueryStats) (*Table, error) {
	if err := ec.interrupted(); err != nil {
		return nil, err
	}
	so := qs.beginStage("order", orderDetail(st.OrderBy), t.NumRows())
	idx, err := ec.sortPerm(st.OrderBy, t, limitRows(st), so)
	if err != nil {
		return nil, err
	}
	t = t.Gather(idx)
	so.end(t)
	return t, nil
}

// orderLimit is the tail every pipeline ends with: the order stage when
// sorted is false and st has ORDER BY keys, then the "limit" stage when st
// has a LIMIT or OFFSET. Pipelines that sort before their final projection
// pass sorted=true.
func orderLimit(ec *ExecContext, st *SelectStmt, t *Table, qs *QueryStats, sorted bool) (*Table, error) {
	if !sorted && len(st.OrderBy) > 0 {
		var err error
		if t, err = execOrder(ec, st, t, qs); err != nil {
			return nil, err
		}
	}
	if st.Limit < 0 && st.Offset == 0 {
		return t, nil
	}
	sl := qs.beginStage("limit", limitDetail(st), t.NumRows())
	t = execLimit(st, t)
	sl.end(t)
	return t, nil
}
