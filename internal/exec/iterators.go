package exec

import (
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// --- scans -------------------------------------------------------------------

// seqScanIter is batch-native: each NextBatch decodes every live record
// of one heap page — fetched in a single buffer-pool visit — straight
// into the batch's value arena, materializing only the columns the plan
// needs and evaluating the pushed-down filter in place. The row
// interface drains those batches through a cursor.
type seqScanIter struct {
	node   *plan.SeqScan
	ctx    *Context
	scan   *storage.HeapScanner
	want   int
	need   []bool
	extras []extraRec // snapshot-visible versions of chained rows
	b      Batch
	cur    batchCursor
	cnt    scanCounters
}

func (it *seqScanIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.scan = it.node.Table.Heap.Scanner()
	it.want = len(it.node.Table.Columns)
	it.need = needMask(it.node.Needed, it.want)
	it.extras = nil
	if versionedTable(ctx, it.node.Table) {
		// Captured once: the same RID set is skipped physically and
		// served from the chains, so concurrent GC cannot hand a row to
		// both halves of the scan (or neither).
		set, rids := captureChains(it.node.Table)
		it.scan.SetSkip(set.has)
		var err error
		it.extras, err = versionedRecs(ctx, it.node.Table, rids)
		if err != nil {
			return err
		}
	}
	it.cur.reset()
	return nil
}

func (it *seqScanIter) NextBatch() (*Batch, error) {
	for {
		_, recs, ok, err := it.scan.NextPage()
		if err != nil {
			return nil, err
		}
		if !ok {
			// Chained rows scan through their version chains instead of
			// the pages; their visible versions form the final batch(es).
			if len(it.extras) == 0 {
				return nil, nil
			}
			n := len(it.extras)
			if n > BatchSize {
				n = BatchSize
			}
			recs = recs[:0]
			for _, e := range it.extras[:n] {
				recs = append(recs, e.rec)
			}
			it.extras = it.extras[n:]
		}
		it.cnt.batches++
		it.b.reset()
		for _, rec := range recs {
			row := it.b.alloc(it.want)
			row, dec, skip, err := types.DecodeRowPartial(row, rec, it.need, it.want)
			if err != nil {
				return nil, err
			}
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if it.node.Filter != nil {
				v, err := it.node.Filter.Eval(row, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					it.b.freeLast(it.want)
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			return &it.b, nil
		}
	}
}

func (it *seqScanIter) Next() ([]types.Value, error) { return it.cur.next(it.NextBatch) }

func (it *seqScanIter) Close() error {
	it.cnt.flush(it.ctx)
	return nil
}

// indexKeys computes the [lo, hi) key range for an access path given
// the row the path's scalars are evaluated against (nil for constants).
// ok=false means the range is provably empty (an equality on NULL).
func indexKeys(path *plan.AccessPath, row, params []types.Value) (lo, hi []byte, ok bool, err error) {
	prefix := make([]byte, 0, 64)
	for _, e := range path.EqPrefix {
		v, err := e.Eval(row, params)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil // col = NULL matches nothing
		}
		prefix = types.EncodeKey(prefix, v)
	}
	lo = prefix
	hi = btree.PrefixSuccessor(prefix)
	if path.Lo != nil {
		v, err := path.Lo.Eval(row, params)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		bound := types.EncodeKey(append([]byte(nil), prefix...), v)
		if path.LoInc {
			lo = bound
		} else {
			lo = btree.PrefixSuccessor(bound)
		}
	}
	if path.Hi != nil {
		v, err := path.Hi.Eval(row, params)
		if err != nil {
			return nil, nil, false, err
		}
		if v.IsNull() {
			return nil, nil, false, nil
		}
		bound := types.EncodeKey(append([]byte(nil), prefix...), v)
		if path.HiInc {
			hi = btree.PrefixSuccessor(bound)
		} else {
			hi = bound
		}
	}
	if len(prefix) == 0 && path.Lo == nil && path.Hi == nil {
		lo, hi = nil, nil
	}
	return lo, hi, true, nil
}

// indexScanIter is batch-native: NextBatch gathers up to BatchSize RIDs
// from the B+tree, then FETCHes each heap row with a partial decode
// (only the plan's needed columns) into the batch arena while the row's
// page is pinned — no intermediate record copy. Under a snapshot the
// walk leaves chained and pre-key-candidate RIDs to a keyProbe, whose
// visible versions form the final batches.
type indexScanIter struct {
	node    *plan.IndexScan
	ctx     *Context
	it      *btree.Iterator
	done    bool
	vers    bool
	probe   keyProbe
	extras  []extraRec // visible versions of the probe's chain path
	walked  bool       // the tree walk ended and extras are resolved
	want    int
	need    []bool
	keyNeed []bool // need plus the index columns, for range checks
	rids    []storage.RID
	b       Batch
	cur     batchCursor
	cnt     scanCounters
}

func (it *indexScanIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.done, it.walked = false, false
	it.want = len(it.node.Table.Columns)
	it.need = needMask(it.node.Needed, it.want)
	it.extras = nil
	it.cur.reset()
	lo, hi, ok, err := indexKeys(&it.node.Path, nil, ctx.Params)
	if err != nil {
		return err
	}
	if !ok {
		it.done = true
		return nil
	}
	it.vers = versionedTable(ctx, it.node.Table)
	if it.vers {
		it.keyNeed = withKeyCols(it.need, it.node.Path.Index)
		if err := it.probe.start(it.node.Table, it.node.Path.Index, lo, hi, &it.cnt); err != nil {
			return err
		}
	}
	it.it, err = it.node.Path.Index.Tree.SeekRange(lo, hi)
	return err
}

// extrasBatch emits the in-range, residual-surviving visible versions
// of the probe's chain path as batches.
func (it *indexScanIter) extrasBatch() (*Batch, error) {
	if !it.walked {
		it.walked = true
		var err error
		if it.extras, err = it.probe.resolve(it.ctx, &it.cnt); err != nil {
			return nil, err
		}
	}
	for len(it.extras) > 0 {
		it.cnt.batches++
		it.b.reset()
		for len(it.extras) > 0 && len(it.b.Rows) < BatchSize {
			e := it.extras[0]
			it.extras = it.extras[1:]
			row := it.b.alloc(it.want)
			row, dec, skip, err := types.DecodeRowPartial(row, e.rec, it.keyNeed, it.want)
			if err != nil {
				return nil, err
			}
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if !it.probe.inRange(row, e.rid) {
				it.b.freeLast(it.want)
				continue
			}
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(row, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					it.b.freeLast(it.want)
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			return &it.b, nil
		}
	}
	return nil, nil
}

func (it *indexScanIter) NextBatch() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	for {
		it.rids = it.rids[:0]
		for len(it.rids) < BatchSize && it.it.Valid() {
			rid := it.it.RID()
			it.it.Next()
			if it.vers && it.probe.chained(rid) {
				continue // resolved through the version chain instead
			}
			it.rids = append(it.rids, rid)
		}
		if len(it.rids) == 0 {
			if err := it.it.Err(); err != nil {
				return nil, err
			}
			if it.vers {
				b, err := it.extrasBatch()
				if err != nil || b != nil {
					return b, err
				}
			}
			it.done = true
			return nil, nil
		}
		it.cnt.batches++
		it.b.reset()
		for _, rid := range it.rids {
			row := it.b.alloc(it.want)
			row, dec, skip, err := it.node.Table.GetRowInto(row, rid, it.need)
			if err != nil {
				return nil, err
			}
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(row, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					it.b.freeLast(it.want)
					continue
				}
			}
			it.b.Rows = append(it.b.Rows, row)
		}
		if len(it.b.Rows) > 0 {
			it.cnt.rows += int64(len(it.b.Rows))
			return &it.b, nil
		}
	}
}

func (it *indexScanIter) Next() ([]types.Value, error) { return it.cur.next(it.NextBatch) }

func (it *indexScanIter) Close() error {
	it.cnt.flush(it.ctx)
	return nil
}

type valuesIter struct {
	node *plan.Values
	ctx  *Context
	i    int
}

func (it *valuesIter) Open(ctx *Context) error { it.ctx = ctx; it.i = 0; return nil }

func (it *valuesIter) Next() ([]types.Value, error) {
	if it.i >= len(it.node.Rows) {
		return nil, nil
	}
	exprs := it.node.Rows[it.i]
	it.i++
	row := make([]types.Value, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(nil, it.ctx.Params)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func (it *valuesIter) Close() error { return nil }

// --- filter / project ---------------------------------------------------------

// filterIter is batch-native: NextBatch compacts the child's batch in
// place (the rows survive untouched; only the Rows index shrinks, and
// the child rebuilds it on its next fill anyway). The row interface
// keeps the original pass-through semantics so row-path parents still
// receive rows with the child's ownership.
type filterIter struct {
	child  Iterator
	bchild BatchIterator
	cond   plan.Scalar
	ctx    *Context
}

func (it *filterIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.bchild = nil
	return it.child.Open(ctx)
}

func (it *filterIter) Next() ([]types.Value, error) {
	for {
		row, err := it.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := it.cond.Eval(row, it.ctx.Params)
		if err != nil {
			return nil, err
		}
		if plan.IsTrue(v) {
			return row, nil
		}
	}
}

func (it *filterIter) NextBatch() (*Batch, error) {
	if it.bchild == nil {
		it.bchild = asBatch(it.child)
	}
	for {
		b, err := it.bchild.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		keep := b.Rows[:0]
		for _, row := range b.Rows {
			v, err := it.cond.Eval(row, it.ctx.Params)
			if err != nil {
				return nil, err
			}
			if plan.IsTrue(v) {
				keep = append(keep, row)
			}
		}
		b.Rows = keep
		if len(b.Rows) > 0 {
			return b, nil
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

// projectIter is batch-native: NextBatch evaluates the output
// expressions of a whole child batch into its own arena, so projection
// allocates nothing per row.
type projectIter struct {
	child  Iterator
	bchild BatchIterator
	exprs  []plan.Scalar
	ctx    *Context
	b      Batch
}

func (it *projectIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.bchild = nil
	return it.child.Open(ctx)
}

func (it *projectIter) Next() ([]types.Value, error) {
	row, err := it.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]types.Value, len(it.exprs))
	for i, e := range it.exprs {
		v, err := e.Eval(row, it.ctx.Params)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (it *projectIter) NextBatch() (*Batch, error) {
	if it.bchild == nil {
		it.bchild = asBatch(it.child)
	}
	b, err := it.bchild.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.b.reset()
	for _, row := range b.Rows {
		out := it.b.alloc(len(it.exprs))
		for i, e := range it.exprs {
			v, err := e.Eval(row, it.ctx.Params)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		it.b.Rows = append(it.b.Rows, out)
	}
	return &it.b, nil
}

func (it *projectIter) Close() error { return it.child.Close() }

// --- joins ---------------------------------------------------------------------

// hashJoinIter builds and probes in batches: the build side is consumed
// via NextBatch (rows copied out of volatile batch storage only when
// needed), and the batch-path probe emits combined rows into its own
// arena, so a probe match allocates nothing. The row interface keeps
// the original per-left-row pending list.
type hashJoinIter struct {
	node       *plan.HashJoin
	left       Iterator
	bleft      BatchIterator
	right      Iterator
	leftWidth  int
	rightWidth int
	ctx        *Context

	table   map[uint64][][]types.Value
	keys    []types.Value
	out     Batch
	pending [][]types.Value // matches for the current left row
	pi      int
}

func (it *hashJoinIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.table = make(map[uint64][][]types.Value)
	it.pending, it.pi = nil, 0
	it.bleft = nil
	it.keys = make([]types.Value, len(it.node.RightKeys))
	bright := asBatch(it.right)
	if err := bright.Open(ctx); err != nil {
		return err
	}
	defer bright.Close()
	// Build rows are retained for the whole probe phase; batch rows
	// from native producers are reused and must be copied out.
	retain := volatileRows(bright)
	for {
		b, err := bright.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows {
			null := false
			for i, k := range it.node.RightKeys {
				v, err := k.Eval(row, ctx.Params)
				if err != nil {
					return err
				}
				if v.IsNull() {
					null = true
					break
				}
				it.keys[i] = v
			}
			if null {
				continue // NULL keys never join
			}
			h := types.HashRow(it.keys)
			if retain {
				row = copyRow(row)
			}
			it.table[h] = append(it.table[h], row)
		}
	}
	return it.left.Open(ctx)
}

// probe appends the surviving joined rows for lrow into it.out (one
// arena carve per row, cleared residual rejections reclaimed).
func (it *hashJoinIter) probe(lrow []types.Value) error {
	null := false
	for i, k := range it.node.LeftKeys {
		v, err := k.Eval(lrow, it.ctx.Params)
		if err != nil {
			return err
		}
		if v.IsNull() {
			null = true
			break
		}
		it.keys[i] = v
	}
	width := it.leftWidth + it.rightWidth
	if !null {
		for _, rrow := range it.table[types.HashRow(it.keys)] {
			ok := true
			for i, k := range it.node.RightKeys {
				rv, err := k.Eval(rrow, it.ctx.Params)
				if err != nil {
					return err
				}
				if !types.Equal(it.keys[i], rv) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			crow := it.out.alloc(width)
			copy(crow, lrow)
			copy(crow[it.leftWidth:], rrow)
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(crow, it.ctx.Params)
				if err != nil {
					return err
				}
				if !plan.IsTrue(v) {
					it.out.freeLast(width)
					continue
				}
			}
			it.out.Rows = append(it.out.Rows, crow)
		}
	}
	return nil
}

func (it *hashJoinIter) NextBatch() (*Batch, error) {
	if it.bleft == nil {
		it.bleft = asBatch(it.left)
	}
	width := it.leftWidth + it.rightWidth
	for {
		lb, err := it.bleft.NextBatch()
		if err != nil {
			return nil, err
		}
		if lb == nil {
			return nil, nil
		}
		it.out.reset()
		for _, lrow := range lb.Rows {
			before := len(it.out.Rows)
			if err := it.probe(lrow); err != nil {
				return nil, err
			}
			// Pad exactly when the row path's pending list would be empty:
			// no match survived the residual.
			if len(it.out.Rows) == before && it.node.Type == sql.LeftJoin {
				crow := it.out.alloc(width)
				copy(crow, lrow)
				for i := it.leftWidth; i < width; i++ {
					crow[i] = types.Value{} // NULL-extend the right half
				}
				it.out.Rows = append(it.out.Rows, crow)
			}
		}
		if len(it.out.Rows) > 0 {
			return &it.out, nil
		}
	}
}

func (it *hashJoinIter) Next() ([]types.Value, error) {
	for {
		if it.pi < len(it.pending) {
			row := it.pending[it.pi]
			it.pi++
			return row, nil
		}
		lrow, err := it.left.Next()
		if err != nil || lrow == nil {
			return nil, err
		}
		it.pending, it.pi = it.pending[:0], 0
		keys := make([]types.Value, len(it.node.LeftKeys))
		null := false
		for i, k := range it.node.LeftKeys {
			v, err := k.Eval(lrow, it.ctx.Params)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			keys[i] = v
		}
		if !null {
			for _, rrow := range it.table[types.HashRow(keys)] {
				ok := true
				for i, k := range it.node.RightKeys {
					rv, err := k.Eval(rrow, it.ctx.Params)
					if err != nil {
						return nil, err
					}
					if !types.Equal(keys[i], rv) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				combined := combine(lrow, rrow)
				if it.node.Residual != nil {
					v, err := it.node.Residual.Eval(combined, it.ctx.Params)
					if err != nil {
						return nil, err
					}
					if !plan.IsTrue(v) {
						continue
					}
				}
				it.pending = append(it.pending, combined)
			}
		}
		if len(it.pending) == 0 && it.node.Type == sql.LeftJoin {
			it.pending = append(it.pending, padRight(lrow, it.rightWidth))
		}
	}
}

func (it *hashJoinIter) Close() error { return it.left.Close() }

func combine(l, r []types.Value) []types.Value {
	out := make([]types.Value, 0, len(l)+len(r))
	return append(append(out, l...), r...)
}

func padRight(l []types.Value, width int) []types.Value {
	out := make([]types.Value, len(l)+width)
	copy(out, l)
	return out
}

type indexNLJoinIter struct {
	node  *plan.IndexNLJoin
	outer Iterator
	ctx   *Context

	cur     []types.Value
	haveRow bool
	inner   *btree.Iterator
	vers    bool
	probe   keyProbe   // routes the current outer row's probe
	extras  []extraRec // visible versions of the probe's chain path
	walked  bool       // the tree walk ended and extras are resolved
	matched bool
	width   int
	need    []bool
	keyNeed []bool        // need plus the index columns, for range checks
	rowbuf  []types.Value // reused inner-fetch decode buffer
	cnt     scanCounters
}

func (it *indexNLJoinIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.cur, it.inner = nil, nil
	it.haveRow = false
	it.extras = nil
	it.width = len(it.node.Inner.Columns)
	it.need = needMask(it.node.NeededInner, it.width)
	it.vers = versionedTable(ctx, it.node.Inner)
	if it.vers {
		it.keyNeed = withKeyCols(it.need, it.node.Path.Index)
	}
	return it.outer.Open(ctx)
}

func (it *indexNLJoinIter) Next() ([]types.Value, error) {
	for {
		if !it.haveRow {
			orow, err := it.outer.Next()
			if err != nil || orow == nil {
				return nil, err
			}
			it.cur = orow
			it.matched = false
			lo, hi, ok, err := indexKeys(&it.node.Path, orow, it.ctx.Params)
			if err != nil {
				return nil, err
			}
			if !ok {
				if it.node.Type == sql.LeftJoin { // NULL key: no match possible
					return padRight(orow, it.width), nil
				}
				continue
			}
			it.inner, err = it.node.Path.Index.Tree.SeekRange(lo, hi)
			if err != nil {
				return nil, err
			}
			it.extras, it.walked = nil, false
			if it.vers {
				// Chained inner rows join through their visible versions,
				// range-checked against [lo, hi) directly (their index
				// entries reflect newer keys, or none); the probe routes
				// each RID the walk meets exactly once.
				if err := it.probe.start(it.node.Inner, it.node.Path.Index, lo, hi, &it.cnt); err != nil {
					return nil, err
				}
			}
			it.haveRow = true
		}
		for it.inner != nil && it.inner.Valid() {
			rid := it.inner.RID()
			it.inner.Next()
			if it.vers && it.probe.chained(rid) {
				continue // resolved through the version chain instead
			}
			// FETCH with partial decode into a reused buffer; combine()
			// copies the values out, so the buffer is free to be reused.
			irow, dec, skip, err := it.node.Inner.GetRowInto(it.rowbuf, rid, it.need)
			if err != nil {
				return nil, err
			}
			it.rowbuf = irow
			it.cnt.rows++
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			combined := combine(it.cur, irow)
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(combined, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					continue
				}
			}
			it.matched = true
			return combined, nil
		}
		if it.inner != nil {
			if err := it.inner.Err(); err != nil {
				return nil, err
			}
			it.inner = nil
		}
		if it.vers && !it.walked {
			it.walked = true
			var err error
			if it.extras, err = it.probe.resolve(it.ctx, &it.cnt); err != nil {
				return nil, err
			}
		}
		for len(it.extras) > 0 {
			e := it.extras[0]
			it.extras = it.extras[1:]
			irow, dec, skip, err := types.DecodeRowPartial(it.rowbuf, e.rec, it.keyNeed, it.width)
			if err != nil {
				return nil, err
			}
			it.rowbuf = irow
			it.cnt.decoded += int64(dec)
			it.cnt.skipped += int64(skip)
			if !it.probe.inRange(irow, e.rid) {
				continue
			}
			it.cnt.rows++
			combined := combine(it.cur, irow)
			if it.node.Residual != nil {
				v, err := it.node.Residual.Eval(combined, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					continue
				}
			}
			it.matched = true
			return combined, nil
		}
		it.haveRow = false
		if !it.matched && it.node.Type == sql.LeftJoin {
			return padRight(it.cur, it.width), nil
		}
	}
}

func (it *indexNLJoinIter) Close() error {
	it.cnt.flush(it.ctx)
	return it.outer.Close()
}

type nlJoinIter struct {
	node       *plan.NLJoin
	left       Iterator
	right      Iterator
	rightWidth int
	ctx        *Context

	rightRows [][]types.Value
	cur       []types.Value
	ri        int
	matched   bool
	done      bool
}

func (it *nlJoinIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.rightRows = nil
	it.cur, it.ri, it.done = nil, 0, false
	if err := it.right.Open(ctx); err != nil {
		return err
	}
	defer it.right.Close()
	for {
		row, err := it.right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		it.rightRows = append(it.rightRows, row)
	}
	return it.left.Open(ctx)
}

func (it *nlJoinIter) Next() ([]types.Value, error) {
	for {
		if it.cur == nil {
			lrow, err := it.left.Next()
			if err != nil || lrow == nil {
				return nil, err
			}
			it.cur, it.ri, it.matched = lrow, 0, false
		}
		for it.ri < len(it.rightRows) {
			rrow := it.rightRows[it.ri]
			it.ri++
			combined := combine(it.cur, rrow)
			if it.node.Cond != nil {
				v, err := it.node.Cond.Eval(combined, it.ctx.Params)
				if err != nil {
					return nil, err
				}
				if !plan.IsTrue(v) {
					continue
				}
			}
			it.matched = true
			return combined, nil
		}
		lrow := it.cur
		it.cur = nil
		if !it.matched && it.node.Type == sql.LeftJoin {
			return padRight(lrow, it.rightWidth), nil
		}
	}
}

func (it *nlJoinIter) Close() error { return it.left.Close() }

// --- aggregation ----------------------------------------------------------------

type aggState struct {
	group  []types.Value
	counts []int64
	sums   []types.Value // running SUM/MIN/MAX per agg
}

type hashAggIter struct {
	node  *plan.HashAggregate
	child Iterator
	ctx   *Context

	groups []*aggState
	gi     int
}

func (it *hashAggIter) Open(ctx *Context) error {
	it.ctx = ctx
	it.groups, it.gi = nil, 0
	// Consume the child in batches: accumulation reads each row once and
	// retains only evaluated group/aggregate values, so volatile batch
	// rows need no copying and a scan→aggregate pipeline runs without
	// per-row allocation.
	bchild := asBatch(it.child)
	if err := bchild.Open(ctx); err != nil {
		return err
	}
	defer bchild.Close()
	byKey := map[uint64][]*aggState{}
	gvals := make([]types.Value, len(it.node.GroupBy))
	for {
		b, err := bchild.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, row := range b.Rows {
			for i, g := range it.node.GroupBy {
				v, err := g.Eval(row, ctx.Params)
				if err != nil {
					return err
				}
				gvals[i] = v
			}
			h := types.HashRow(gvals)
			var st *aggState
			for _, cand := range byKey[h] {
				same := true
				for i := range gvals {
					if !sameGroupValue(cand.group[i], gvals[i]) {
						same = false
						break
					}
				}
				if same {
					st = cand
					break
				}
			}
			if st == nil {
				st = &aggState{
					group:  copyRow(gvals),
					counts: make([]int64, len(it.node.Aggs)),
					sums:   make([]types.Value, len(it.node.Aggs)),
				}
				for i := range st.sums {
					st.sums[i] = types.Null()
				}
				byKey[h] = append(byKey[h], st)
				it.groups = append(it.groups, st)
			}
			for i, spec := range it.node.Aggs {
				if err := accumulate(st, i, spec, row, ctx.Params); err != nil {
					return err
				}
			}
		}
	}
	// Global aggregation over an empty input still emits one row.
	if len(it.node.GroupBy) == 0 && len(it.groups) == 0 {
		st := &aggState{
			counts: make([]int64, len(it.node.Aggs)),
			sums:   make([]types.Value, len(it.node.Aggs)),
		}
		for i := range st.sums {
			st.sums[i] = types.Null()
		}
		it.groups = append(it.groups, st)
	}
	return nil
}

// sameGroupValue groups NULLs together (SQL GROUP BY semantics).
func sameGroupValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return types.Equal(a, b)
}

func accumulate(st *aggState, i int, spec plan.AggSpec, row, params []types.Value) error {
	if spec.Func == plan.AggCountStar {
		st.counts[i]++
		return nil
	}
	v, err := spec.Arg.Eval(row, params)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	st.counts[i]++
	switch spec.Func {
	case plan.AggCount:
	case plan.AggSum, plan.AggAvg:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else {
			sum, err := addValues(st.sums[i], v)
			if err != nil {
				return err
			}
			st.sums[i] = sum
		}
	case plan.AggMin:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else if c, err := types.Compare(v, st.sums[i]); err != nil {
			return err
		} else if c < 0 {
			st.sums[i] = v
		}
	case plan.AggMax:
		if st.sums[i].IsNull() {
			st.sums[i] = v
		} else if c, err := types.Compare(v, st.sums[i]); err != nil {
			return err
		} else if c > 0 {
			st.sums[i] = v
		}
	}
	return nil
}

func addValues(a, b types.Value) (types.Value, error) {
	if a.Kind == types.KindInt && b.Kind == types.KindInt {
		return types.NewInt(a.Int + b.Int), nil
	}
	af, err := types.Cast(a, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("exec: SUM over %s", a.Kind)
	}
	bf, err := types.Cast(b, types.KindFloat)
	if err != nil {
		return types.Null(), fmt.Errorf("exec: SUM over %s", b.Kind)
	}
	return types.NewFloat(af.Float + bf.Float), nil
}

func (it *hashAggIter) Next() ([]types.Value, error) {
	if it.gi >= len(it.groups) {
		return nil, nil
	}
	st := it.groups[it.gi]
	it.gi++
	out := make([]types.Value, 0, len(st.group)+len(it.node.Aggs))
	out = append(out, st.group...)
	for i, spec := range it.node.Aggs {
		switch spec.Func {
		case plan.AggCount, plan.AggCountStar:
			out = append(out, types.NewInt(st.counts[i]))
		case plan.AggSum, plan.AggMin, plan.AggMax:
			out = append(out, st.sums[i])
		case plan.AggAvg:
			if st.counts[i] == 0 {
				out = append(out, types.Null())
			} else {
				f, err := types.Cast(st.sums[i], types.KindFloat)
				if err != nil {
					return nil, err
				}
				out = append(out, types.NewFloat(f.Float/float64(st.counts[i])))
			}
		}
	}
	return out, nil
}

func (it *hashAggIter) Close() error { return nil }

// --- sort / limit / distinct / materialize ----------------------------------------

type sortIter struct {
	node  *plan.Sort
	child Iterator
	rows  [][]types.Value
	i     int
}

func (it *sortIter) Open(ctx *Context) error {
	it.rows, it.i = nil, 0
	if err := it.child.Open(ctx); err != nil {
		return err
	}
	defer it.child.Close()
	for {
		row, err := it.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		it.rows = append(it.rows, row)
	}
	keys := it.node.Keys
	var sortErr error
	sort.SliceStable(it.rows, func(a, b int) bool {
		for _, k := range keys {
			c, err := types.Compare(it.rows[a][k.Col], it.rows[b][k.Col])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

func (it *sortIter) Next() ([]types.Value, error) {
	if it.i >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.i]
	it.i++
	return row, nil
}

func (it *sortIter) Close() error { return nil }

type limitIter struct {
	child Iterator
	n     int64
	seen  int64
}

func (it *limitIter) Open(ctx *Context) error { it.seen = 0; return it.child.Open(ctx) }

func (it *limitIter) Next() ([]types.Value, error) {
	if it.seen >= it.n {
		return nil, nil
	}
	row, err := it.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.seen++
	return row, nil
}

func (it *limitIter) Close() error { return it.child.Close() }

type distinctIter struct {
	child Iterator
	seen  map[uint64][][]types.Value
}

func (it *distinctIter) Open(ctx *Context) error {
	it.seen = make(map[uint64][][]types.Value)
	return it.child.Open(ctx)
}

func (it *distinctIter) Next() ([]types.Value, error) {
	for {
		row, err := it.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		h := types.HashRow(row)
		dup := false
		for _, prev := range it.seen[h] {
			same := true
			for i := range row {
				if !sameGroupValue(prev[i], row[i]) {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		it.seen[h] = append(it.seen[h], row)
		return row, nil
	}
}

func (it *distinctIter) Close() error { return it.child.Close() }

// materializeIter fully evaluates its child at Open — the naive
// optimizer's derived-table behaviour (the paper's Test 1).
type materializeIter struct {
	child Iterator
	rows  [][]types.Value
	i     int
}

func (it *materializeIter) Open(ctx *Context) error {
	it.rows, it.i = nil, 0
	if err := it.child.Open(ctx); err != nil {
		return err
	}
	defer it.child.Close()
	for {
		row, err := it.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		it.rows = append(it.rows, row)
	}
}

func (it *materializeIter) Next() ([]types.Value, error) {
	if it.i >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.i]
	it.i++
	return row, nil
}

func (it *materializeIter) Close() error { return nil }
