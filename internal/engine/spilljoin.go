package engine

// spilljoin implements the disk-backed (grace) hash join. When the
// estimated build + output footprint of a hash join cannot fit the
// query's soft memory budget, both sides are hash-partitioned to run
// files by their join-key hash, each partition pair is joined
// independently (build the small side, stream the probe side), and the
// per-partition outputs are merged back into the exact row order the
// in-memory join produces.
//
// Order reconstruction: every spilled row carries its original row index
// (rid). The in-memory join emits rows in (left row order, matches in
// right row order) — i.e. ascending (lrid, rrid). Each emitted row is
// tagged with a merge key mk = (lrid+1)<<32 | (rrid+1) (0 low half for
// LEFT JOIN outer rows, which never coexist with matches of the same left
// row); partition outputs are mk-sorted by construction, so a k-way merge
// by mk reproduces the materialized order bit for bit.
//
// On top of the grace join, trySpillJoinAgg runs a grouped aggregate over
// a single join without ever materializing the joined relation: the
// merged stream is fed straight into the spilled-aggregation sink with
// true row ordinals, so results stay bit-identical to the in-memory
// join → filter → aggregate pipeline.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// wouldSpill reports whether an operator expecting to charge about est
// more bytes should take its disk-backed path instead.
func (ec *ExecContext) wouldSpill(est int64) bool {
	if !ec.spillEnabled() {
		return false
	}
	b := ec.budget()
	return b > 0 && ec.Acct.Live()+est > b
}

// joinedSchema is the output schema of a hash join: left columns then
// right columns (both already alias-qualified).
func joinedSchema(left, right *Table) Schema {
	s := append(Schema{}, left.Schema()...)
	return append(s, right.Schema()...)
}

// joinSpill carries one grace join's fixed state: the two (qualified,
// pushed-filtered) sides, the join-key column indexes, which key pairs
// need float64 promotion, and the accumulated spill statistics.
type joinSpill struct {
	ec           *ExecContext
	left, right  *Table
	kidxL, kidxR []int
	promote      []bool
	jc           JoinClause
	residual     Expr // ON-clause residual, applied per emitted batch
	node         *PlanNode
	spilled      int64
	leafParts    int64
	groups       int64
	outRuns      []string
}

func newJoinSpill(ec *ExecContext, left, right *Table, lk, rk []string, jc JoinClause, residual Expr, node *PlanNode) (*joinSpill, error) {
	js := &joinSpill{ec: ec, left: left, right: right, jc: jc, residual: residual, node: node}
	for i := range lk {
		li := left.Schema().ColIndex(lk[i])
		ri := right.Schema().ColIndex(rk[i])
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("engine: internal: lost join key %q/%q", lk[i], rk[i])
		}
		js.kidxL = append(js.kidxL, li)
		js.kidxR = append(js.kidxR, ri)
		js.promote = append(js.promote, left.Col(li).Type() != right.Col(ri).Type())
	}
	return js, nil
}

// batchKeys extracts one run batch's join-key vectors (vs is side columns
// + rid), applying the same float64 promotion the in-memory join applies
// to mixed-type key pairs — promotion is elementwise, so per-batch casts
// hash identically to the full-side casts used for routing.
func (js *joinSpill) batchKeys(vs []*Vector, kidx []int) []*Vector {
	kc := make([]*Vector, len(kidx))
	for i, ci := range kidx {
		v := vs[ci]
		if js.promote[i] {
			v = v.CastFloat64()
		}
		kc[i] = v
	}
	return kc
}

// partitionSide streams one side morsel-by-morsel into 16 run files keyed
// by join-key hash. Rows keep their original columns plus their global
// row index; NULL-key rows route by their (deterministic) hash so each
// appears in exactly one partition.
func (js *joinSpill) partitionSide(t *Table, keyCols []*Vector, label string) ([16]string, error) {
	ec := js.ec
	sp := &rowSpiller{ec: ec, label: label}
	nc := t.NumCols()
	for _, m := range ec.morselsOf(t.NumRows()) {
		if err := ec.interrupted(); err != nil {
			sp.close()
			return [16]string{}, err
		}
		n := m.hi - m.lo
		cols := make([]*Vector, nc)
		for j := 0; j < nc; j++ {
			cols[j] = t.Col(j).Slice(m.lo, m.hi)
		}
		kc := make([]*Vector, len(keyCols))
		for j := range keyCols {
			kc[j] = keyCols[j].Slice(m.lo, m.hi)
		}
		hashes := getHashBuf(n)
		hashKeyCols(kc, n, hashes)
		seq := make([]int64, n)
		for r := range seq {
			seq[r] = int64(m.lo + r)
		}
		err := sp.add(hashes, cols, seq, n)
		putHashBuf(hashes)
		if err != nil {
			sp.close()
			return [16]string{}, err
		}
	}
	paths, bytes, err := sp.close()
	js.spilled += bytes
	return paths, err
}

// partitionAndProbe runs the full grace join: partition both sides, then
// join each partition pair, leaving mk-sorted output runs in js.outRuns.
func (js *joinSpill) partitionAndProbe(lKeyCols, rKeyCols []*Vector) error {
	lPaths, err := js.partitionSide(js.left, lKeyCols, "jl")
	if err != nil {
		return err
	}
	rPaths, err := js.partitionSide(js.right, rKeyCols, "jr")
	if err != nil {
		return err
	}
	for p := 0; p < 16; p++ {
		if err := js.process(lPaths[p], rPaths[p], 0); err != nil {
			return err
		}
	}
	return nil
}

// repartition re-splits one run by the next 4 hash bits (sub's depth).
func (js *joinSpill) repartition(rr *runReader, path string, kidx []int, sub *rowSpiller) error {
	for {
		vs, err := rr.next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = js.ec.interrupted()
		}
		if err != nil {
			rr.close()
			return err
		}
		n := vs[0].Len()
		kc := js.batchKeys(vs, kidx)
		hashes := getHashBuf(n)
		hashKeyCols(kc, n, hashes)
		err = sub.add(hashes, vs[:len(vs)-1], vs[len(vs)-1].Int64s(), n)
		putHashBuf(hashes)
		if err != nil {
			rr.close()
			return err
		}
	}
	if err := rr.close(); err != nil {
		return err
	}
	js.ec.removeRun(path)
	return nil
}

// process joins one partition pair. A build side still larger than half
// the budget re-partitions both sides by the next 4 hash bits (all
// matches of a row live in its own partition, so the pair recursion stays
// aligned); otherwise the pair is joined directly.
func (js *joinSpill) process(lp, rp string, depth int) error {
	ec := js.ec
	if lp == "" {
		// No probe rows: inner and left joins both emit nothing.
		if rp != "" {
			ec.removeRun(rp)
		}
		return nil
	}
	if err := ec.interrupted(); err != nil {
		return err
	}
	var rr *runReader
	if rp != "" {
		var err error
		rr, err = ec.openRun(rp)
		if err != nil {
			return err
		}
		if rr.size > ec.budget()/2 && depth < maxSpillDepth {
			subR := &rowSpiller{ec: ec, label: "jr", depth: depth + 1}
			if err := js.repartition(rr, rp, js.kidxR, subR); err != nil {
				subR.close()
				return err
			}
			rSub, bytes, err := subR.close()
			js.spilled += bytes
			if err != nil {
				return err
			}
			lr, err := ec.openRun(lp)
			if err != nil {
				return err
			}
			subL := &rowSpiller{ec: ec, label: "jl", depth: depth + 1}
			if err := js.repartition(lr, lp, js.kidxL, subL); err != nil {
				subL.close()
				return err
			}
			lSub, bytes, err := subL.close()
			js.spilled += bytes
			if err != nil {
				return err
			}
			for p := 0; p < 16; p++ {
				if err := js.process(lSub[p], rSub[p], depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return js.leaf(lp, rr, rp, depth)
}

// leaf joins one partition pair directly: load the build (right) side,
// index it exactly like the in-memory join (insertion in rrid order, CSR
// match lists), then stream the probe (left) side batch by batch, writing
// emitted rows + merge keys to an mk-sorted output run.
func (js *joinSpill) leaf(lp string, rr *runReader, rp string, depth int) error {
	ec := js.ec
	lw, rw := js.left.NumCols(), js.right.NumCols()

	var rCols []*Vector
	rTotal := 0
	if rr != nil {
		batches, err := rr.drain()
		if cerr := rr.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		ec.removeRun(rp)
		if len(batches) > 0 {
			for _, b := range batches {
				rTotal += b[0].Len()
			}
			nc := len(batches[0])
			rCols = make([]*Vector, nc)
			var loaded int64
			for j := 0; j < nc; j++ {
				parts := make([]*Vector, len(batches))
				for i, b := range batches {
					parts[i] = b[j]
				}
				rCols[j] = concatVectors(parts[0].Type(), parts, rTotal)
				loaded += rCols[j].ByteSize()
			}
			ec.charge(loaded)
			defer ec.release(loaded)
		}
	}
	if rCols == nil {
		rCols = make([]*Vector, rw+1)
		for j := 0; j < rw; j++ {
			rCols[j] = NewVector(js.right.Col(j).Type())
		}
		rCols[rw] = NewVector(Int64)
	}
	rrids := rCols[rw].Int64s()

	// Build index over the loaded rows (loaded order = ascending rrid).
	rKeys := js.batchKeys(rCols, js.kidxR)
	rHashes := getHashBuf(rTotal)
	hashKeyCols(rKeys, rTotal, rHashes)
	rNulls := keyNulls(rKeys, rTotal)
	index := newGroupIndex(rTotal)
	buildSrc := index.addSource(rKeys)
	groupOf := make([]int32, rTotal)
	for r := 0; r < rTotal; r++ {
		if r&4095 == 0 {
			if err := ec.interrupted(); err != nil {
				putHashBuf(rHashes)
				return err
			}
		}
		if rNulls != nil && rNulls[r] {
			groupOf[r] = -1
			continue
		}
		groupOf[r] = index.insert(rHashes[r], buildSrc, int32(r))
	}
	putHashBuf(rHashes)
	groups := index.groups()
	off := make([]int32, groups+1)
	for _, g := range groupOf {
		if g >= 0 {
			off[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	matchRows := make([]int32, off[groups])
	cursor := append([]int32(nil), off[:groups]...)
	for r, g := range groupOf {
		if g >= 0 {
			matchRows[cursor[g]] = int32(r)
			cursor[g]++
		}
	}
	js.groups += int64(groups)

	// Probe: left run batches arrive in ascending lrid, matches come out in
	// ascending rrid, so the output run is mk-sorted without any sort.
	lr, err := ec.openRun(lp)
	if err != nil {
		return err
	}
	var ow *runWriter
	fail := func(err error) error {
		lr.close()
		if ow != nil {
			ow.close()
		}
		return err
	}
	for {
		vs, err := lr.next()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = ec.interrupted()
		}
		if err != nil {
			return fail(err)
		}
		n := vs[0].Len()
		lrids := vs[lw].Int64s()
		lKeys := js.batchKeys(vs, js.kidxL)
		lHashes := getHashBuf(n)
		hashKeyCols(lKeys, n, lHashes)
		lNulls := keyNulls(lKeys, n)
		probeSrc := index.addSource(lKeys)
		lsel := getSelBuf(n)
		rsel := getSelBuf(n)
		for r := 0; r < n; r++ {
			matched := false
			if lNulls == nil || !lNulls[r] {
				if g := index.find(lHashes[r], probeSrc, int32(r)); g >= 0 {
					for _, mr := range matchRows[off[g]:off[g+1]] {
						lsel = append(lsel, int32(r))
						rsel = append(rsel, mr)
						matched = true
					}
				}
			}
			if !matched && js.jc.Left {
				lsel = append(lsel, int32(r))
				rsel = append(rsel, -1)
			}
		}
		putHashBuf(lHashes)
		if len(lsel) == 0 {
			putSelBuf(lsel)
			putSelBuf(rsel)
			continue
		}
		outCols := make([]*Vector, lw+rw+1)
		for j := 0; j < lw; j++ {
			outCols[j] = vs[j].Gather(lsel)
		}
		for j := 0; j < rw; j++ {
			outCols[lw+j] = rCols[j].GatherOuter(rsel)
		}
		mks := make([]int64, len(lsel))
		for i := range mks {
			mk := (lrids[lsel[i]] + 1) << 32
			if rsel[i] >= 0 {
				mk |= rrids[rsel[i]] + 1
			}
			mks[i] = mk
		}
		putSelBuf(lsel)
		putSelBuf(rsel)
		if js.residual != nil {
			bt, err := NewTableFromVectors(joinedSchema(js.left, js.right), outCols[:lw+rw])
			if err != nil {
				return fail(err)
			}
			sel, err := FilterSel(js.residual, bt)
			if err != nil {
				return fail(err)
			}
			for j := 0; j < lw+rw; j++ {
				outCols[j] = outCols[j].Gather(sel)
			}
			fm := make([]int64, len(sel))
			for i, s := range sel {
				fm[i] = mks[s]
			}
			mks = fm
			if len(mks) == 0 {
				continue
			}
		}
		outCols[lw+rw] = NewInt64Vector(mks, nil)
		if ow == nil {
			ow, err = ec.newRunWriter(fmt.Sprintf("jo-d%d", depth))
			if err != nil {
				return fail(err)
			}
		}
		if err := ow.write(outCols); err != nil {
			return fail(err)
		}
	}
	if err := lr.close(); err != nil {
		if ow != nil {
			ow.close()
		}
		return err
	}
	ec.removeRun(lp)
	js.leafParts++
	if ow != nil {
		js.outRuns = append(js.outRuns, ow.path)
		js.spilled += ow.bytes()
		if err := ow.close(); err != nil {
			return err
		}
	}
	return nil
}

// finishStats folds the join's spill totals onto its plan node and the
// engine/query counters (bytes are already tallied per write).
func (js *joinSpill) finishStats() {
	if js.node != nil {
		js.node.Groups = js.groups
		js.node.SpillParts += js.leafParts
		js.node.SpillBytes += js.spilled
	}
	js.ec.addSpill(0, js.leafParts)
}

// keyNulls returns a per-row any-key-component-NULL flag slice, or nil
// when no key column can hold NULLs.
func keyNulls(keys []*Vector, n int) []bool {
	var nulls []bool
	for _, c := range keys {
		if c.valid != nil {
			nulls = make([]bool, n)
			break
		}
	}
	if nulls != nil {
		for _, c := range keys {
			if c.valid == nil {
				continue
			}
			for r := 0; r < n; r++ {
				if c.IsNull(r) {
					nulls[r] = true
				}
			}
		}
	}
	return nulls
}

// mergeJoinRuns k-way merges mk-sorted output runs back into global mk
// order, flushing batchRows-row batches to fn along with the batch's
// starting row ordinal. Fully consumed runs are deleted eagerly.
func mergeJoinRuns(ec *ExecContext, paths []string, schema Schema, batchRows int, fn func(batch *Table, start int64) error) error {
	type head struct {
		rr   *runReader
		path string
		vs   []*Vector
		mks  []int64
		cur  int
	}
	var heads []*head
	cleanup := func() {
		for _, h := range heads {
			if h.rr != nil {
				h.rr.close()
			}
		}
	}
	advance := func(h *head) error {
		h.cur++
		if h.cur < len(h.mks) {
			return nil
		}
		for {
			vs, err := h.rr.next()
			if err == io.EOF {
				cerr := h.rr.close()
				h.rr, h.vs, h.mks, h.cur = nil, nil, nil, 0
				if cerr != nil {
					return cerr
				}
				ec.removeRun(h.path)
				return nil
			}
			if err != nil {
				return err
			}
			if vs[0].Len() == 0 {
				continue
			}
			h.vs, h.mks, h.cur = vs, vs[len(vs)-1].Int64s(), 0
			return nil
		}
	}
	for _, p := range paths {
		rr, err := ec.openRun(p)
		if err != nil {
			cleanup()
			return err
		}
		h := &head{rr: rr, path: p, cur: -1}
		heads = append(heads, h)
		if err := advance(h); err != nil {
			cleanup()
			return err
		}
	}
	ncols := len(schema)
	newBuilders := func() []*Vector {
		bs := make([]*Vector, ncols)
		for j := range bs {
			bs[j] = NewVector(schema[j].Type)
		}
		return bs
	}
	builders := newBuilders()
	rows := 0
	var start int64
	flush := func() error {
		if rows == 0 {
			return nil
		}
		bt, err := NewTableFromVectors(schema, builders)
		if err != nil {
			return err
		}
		if err := fn(bt, start); err != nil {
			return err
		}
		start += int64(rows)
		builders = newBuilders()
		rows = 0
		return ec.interrupted()
	}
	for {
		var best *head
		for _, h := range heads {
			if h.mks == nil {
				continue
			}
			if best == nil || h.mks[h.cur] < best.mks[best.cur] {
				best = h
			}
		}
		if best == nil {
			break
		}
		for j := 0; j < ncols; j++ {
			if err := appendKeyRow(builders[j], best.vs[j], best.cur); err != nil {
				cleanup()
				return err
			}
		}
		rows++
		if rows == batchRows {
			if err := flush(); err != nil {
				cleanup()
				return err
			}
		}
		if err := advance(best); err != nil {
			cleanup()
			return err
		}
	}
	return flush()
}

// graceHashJoin is hashJoin's disk-backed path: identical output (rows,
// order, float bits), peak memory bounded by partition size instead of
// build + output size. Called with the already-promoted key vectors.
func graceHashJoin(ec *ExecContext, left, right *Table, lKeyCols, rKeyCols []*Vector, lk, rk []string, jc JoinClause, residual Expr, node *PlanNode) (*Table, error) {
	js, err := newJoinSpill(ec, left, right, lk, rk, jc, residual, node)
	if err != nil {
		return nil, err
	}
	if err := js.partitionAndProbe(lKeyCols, rKeyCols); err != nil {
		return nil, err
	}
	js.finishStats()
	schema := joinedSchema(left, right)
	var parts []*Table
	err = mergeJoinRuns(ec, js.outRuns, schema, ec.morselSize(), func(b *Table, _ int64) error {
		parts = append(parts, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return NewTable(schema), nil
	}
	return ec.concatTables(schema, parts)
}

// trySpillJoinAgg runs SELECT ... FROM a JOIN b ON ... [WHERE] GROUP BY
// ... entirely through the spill machinery when the joined relation would
// blow the memory budget: grace-join both sides, then feed the merged
// stream (tagged with true row ordinals) straight into the spilled
// aggregation — the joined table is never materialized. Returns
// handled=false when the statement shape doesn't fit or the join is
// expected to stay within budget; the caller then takes the normal
// materialize path.
func (db *DB) trySpillJoinAgg(ec *ExecContext, s *SelectStmt, qs *QueryStats) (*Table, bool, error) {
	if !ec.spillEnabled() || len(s.Joins) != 1 || !selHasAgg(s) || len(s.GroupBy) == 0 {
		return nil, false, nil
	}
	plan, err := db.planJoinsFor(ec, s, ec == nil || !ec.NoJoinReorder)
	if err != nil {
		return nil, false, err
	}
	if len(plan.rels) != 2 || len(plan.order) != 1 || plan.reordered {
		return nil, false, nil
	}
	var est int64
	for _, r := range plan.rels {
		if r.table.NumRows() >= 1<<30 {
			return nil, false, nil
		}
		est += r.table.ByteSize() + int64(r.table.NumRows())*16
	}
	if !ec.wouldSpill(est) {
		return nil, false, nil
	}

	// Load both relations exactly as buildJoined would: qualified names,
	// planner-pushed filters below the join.
	inputs := make([]*Table, 2)
	nodes := make([]*PlanNode, 2)
	for i, r := range plan.rels {
		qt := qualifyTable(r.table, r.alias)
		var node *PlanNode
		if qs != nil {
			node = scanPlanNode(r.name, r.table)
		}
		if r.pushed != nil {
			tf := time.Now()
			fnode := &PlanNode{Op: "filter", Detail: "pushed " + r.pushed.String(), RowsIn: int64(qt.NumRows())}
			ec.setOperator("filter pushed " + r.pushed.String())
			sel, err := ec.filterSel(r.pushed, qt, fnode)
			if err != nil {
				return nil, true, err
			}
			qt = ec.gather(qt, sel)
			if qs != nil {
				fnode.Nanos = time.Since(tf).Nanoseconds()
				fnode.RowsOut = int64(qt.NumRows())
				fnode.Batches = int64(qt.NumCols())
				fnode.Bytes = qt.ByteSize()
				fnode.Children = []*PlanNode{node}
				atomic.AddInt64(&qs.FilterNanos, fnode.Nanos)
				node = fnode
			}
		}
		inputs[i] = qt
		nodes[i] = node
	}
	jc := s.Joins[plan.order[0]]
	left, right := inputs[0], inputs[1]
	lk, rk, onResidual, err := splitOn(jc.On, left, right)
	if err != nil {
		return nil, true, err
	}

	t0 := time.Now()
	jnode := &PlanNode{Op: "join", Detail: joinDetail(jc)}
	ec.setOperator("join " + joinDetail(jc))
	js, err := newJoinSpill(ec, left, right, lk, rk, jc, onResidual, jnode)
	if err != nil {
		return nil, true, err
	}
	lKeyCols := make([]*Vector, len(lk))
	rKeyCols := make([]*Vector, len(rk))
	for i := range lk {
		lKeyCols[i] = left.Col(js.kidxL[i])
		rKeyCols[i] = right.Col(js.kidxR[i])
		if js.promote[i] {
			lKeyCols[i] = lKeyCols[i].CastFloat64()
			rKeyCols[i] = rKeyCols[i].CastFloat64()
		}
	}
	if err := js.partitionAndProbe(lKeyCols, rKeyCols); err != nil {
		return nil, true, err
	}
	js.finishStats()
	if qs != nil {
		jnode.RowsIn = int64(left.NumRows() + right.NumRows())
		jnode.Children = []*PlanNode{nodes[0], nodes[1]}
		qs.Root = jnode
	}

	// Aggregate off the merged stream. where is the planner's residual
	// WHERE (the conjuncts not pushed below the join), applied per merged
	// batch just like the fused in-memory filter applies it per morsel.
	where := plan.residual
	schema := joinedSchema(left, right)
	emptyJoined := NewTable(schema)
	prep, err := prepareAgg(s, emptyJoined)
	if err != nil {
		return nil, true, err
	}
	as, err := newAggSpillState(ec, s, prep.aggCalls, prep.emptyKeys, emptyJoined)
	if err != nil {
		return nil, true, err
	}
	var fs *stage
	if where != nil {
		fs = qs.beginStage("filter", where.String(), 0)
		if fn := fs.planNode(); fn != nil {
			fn.Fused = true
		}
	}
	sg := qs.beginStage("aggregate", aggDetail(s), 0)
	if n := sg.planNode(); n != nil && where != nil {
		n.Fused = true
	}
	fnode, anode := fs.planNode(), sg.planNode()

	var total int64
	err = mergeJoinRuns(ec, js.outRuns, schema, ec.morselSize(), func(b *Table, startOrd int64) error {
		n := b.NumRows()
		total += int64(n)
		part := b
		var sel []int32
		if where != nil {
			var err error
			sel, err = FilterSel(where, b)
			if err != nil {
				return err
			}
			if fnode != nil {
				atomic.AddInt64(&fnode.RowsOut, int64(len(sel)))
			}
			fnode.AddMorsels(1)
			part = b.Gather(sel)
		}
		anode.AddMorsels(1)
		pn := part.NumRows()
		if pn == 0 {
			return nil
		}
		seq := make([]int64, pn)
		for r := 0; r < pn; r++ {
			if sel != nil {
				seq[r] = startOrd + int64(sel[r])
			} else {
				seq[r] = startOrd + int64(r)
			}
		}
		return as.feed(part, seq)
	})
	if err != nil {
		as.abort()
		return nil, true, err
	}
	if qs != nil {
		nanos := time.Since(t0).Nanoseconds()
		atomic.AddInt64(&qs.JoinNanos, nanos)
		jnode.Nanos = nanos
		jnode.RowsOut = total
		qs.RowsScanned += int(total)
		qs.Vectors += len(schema)
	}
	ec.addRows(int(total))
	if fnode != nil {
		fnode.RowsIn = total
	}
	if anode != nil {
		anode.RowsIn = total
	}

	mid, err := as.finish(anode)
	if err != nil {
		return nil, true, err
	}
	out, err := aggFinalize(ec, mid, prep.having, prep.items)
	if err != nil {
		return nil, true, err
	}
	if fs != nil {
		fs.end(nil)
	}
	sg.end(out)
	out, err = orderLimit(ec, s, out, qs, false)
	if err != nil {
		return nil, true, err
	}
	if err := ec.interrupted(); err != nil {
		return nil, true, err
	}
	if qs != nil {
		qs.RowsOut += out.NumRows()
		qs.Vectors += len(out.Schema())
	}
	return out, true, nil
}
