package exec

import (
	"sync/atomic"

	"repro/internal/types"
)

// BatchSize is the row count batch producers aim for. Scans batch at
// page granularity instead (one buffer-pool visit decodes a whole
// page), so a batch may hold more or fewer rows; consumers must only
// rely on a batch being non-empty.
const BatchSize = 64

// Batch is the unit of flow between batch-aware operators. Rows either
// alias the producer's value arena (scans, projections, hash-join
// output) or are rows the producer received from a row-at-a-time child;
// in both cases they are valid only until the producer's next NextBatch
// call. Consumers that retain rows beyond that must copy them
// (copyRow); sharing the Values themselves is safe — strings are
// immutable Go strings.
type Batch struct {
	Rows [][]types.Value

	// arena backs the rows of producers that materialize values. Rows
	// are carved off its tail; when a chunk fills, a fresh one is
	// started and already-carved rows keep the old chunk alive, so
	// carved slices are never invalidated mid-batch.
	arena []types.Value
}

// reset recycles the batch for the producer's next fill. Previously
// returned rows become invalid (their storage is about to be reused).
func (b *Batch) reset() {
	b.Rows = b.Rows[:0]
	if b.arena != nil {
		b.arena = b.arena[:0]
	}
}

// alloc carves a width-value row off the arena tail. Arena chunks are
// reused across batches, so the returned slice holds stale values: the
// caller must write (or explicitly NULL) every position.
func (b *Batch) alloc(width int) []types.Value {
	n := len(b.arena)
	if n+width > cap(b.arena) {
		c := BatchSize * width
		if c < 256 {
			c = 256
		}
		b.arena = make([]types.Value, 0, c)
		n = 0
	}
	b.arena = b.arena[:n+width]
	return b.arena[n : n+width : n+width]
}

// freeLast returns the most recent alloc (of the same width) to the
// arena so a filtered-out row's storage is reused immediately.
func (b *Batch) freeLast(width int) {
	b.arena = b.arena[:len(b.arena)-width]
}

// BatchIterator extends Iterator with a batched pull: NextBatch returns
// a non-empty batch, or nil at end of stream. The batch and its rows
// are owned by the iterator and reused by the next NextBatch call. Use
// either Next or NextBatch on a given iterator for the whole execution,
// not both.
type BatchIterator interface {
	Iterator
	NextBatch() (*Batch, error)
}

// asBatch adapts any iterator to the batch interface. Batch-native
// operators are returned as-is; everything else is wrapped so batch
// consumers can drive a uniform loop.
func asBatch(it Iterator) BatchIterator {
	if b, ok := it.(BatchIterator); ok {
		return b
	}
	return &rowBatchAdapter{child: it}
}

// volatileRows reports whether b's batches alias producer-owned storage
// that the next NextBatch call reuses. Adapter batches reference rows
// the child handed over per the Iterator contract (caller-owned), so
// consumers may retain those without copying.
func volatileRows(b BatchIterator) bool {
	_, adapter := b.(*rowBatchAdapter)
	return !adapter
}

// rowBatchAdapter batches a row-at-a-time child.
type rowBatchAdapter struct {
	child Iterator
	b     Batch
}

func (a *rowBatchAdapter) Open(ctx *Context) error      { return a.child.Open(ctx) }
func (a *rowBatchAdapter) Close() error                 { return a.child.Close() }
func (a *rowBatchAdapter) Next() ([]types.Value, error) { return a.child.Next() }

func (a *rowBatchAdapter) NextBatch() (*Batch, error) {
	a.b.reset()
	for len(a.b.Rows) < BatchSize {
		row, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		a.b.Rows = append(a.b.Rows, row)
	}
	if len(a.b.Rows) == 0 {
		return nil, nil
	}
	return &a.b, nil
}

// batchCursor drains a NextBatch source one row at a time for parents
// that speak the row interface. Rows are copied out because Next hands
// ownership to the caller while batch rows are reused.
type batchCursor struct {
	cur *Batch
	i   int
}

func (c *batchCursor) reset() { c.cur, c.i = nil, 0 }

func (c *batchCursor) next(src func() (*Batch, error)) ([]types.Value, error) {
	for c.cur == nil || c.i >= len(c.cur.Rows) {
		b, err := src()
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.cur = nil
			return nil, nil
		}
		c.cur, c.i = b, 0
	}
	row := c.cur.Rows[c.i]
	c.i++
	return copyRow(row), nil
}

// copyRow clones a row out of reused batch storage. Values are shared
// (strings are immutable), only the slice is fresh.
func copyRow(row []types.Value) []types.Value {
	out := make([]types.Value, len(row))
	copy(out, row)
	return out
}

// --- executor counters --------------------------------------------------------

// Stats aggregates executor counters across statements. Iterators
// accumulate locally and flush on Close, so the atomics cost nothing
// per row; safe for concurrent executions sharing one Stats.
type Stats struct {
	rowsScanned   atomic.Int64
	scanBatches   atomic.Int64
	valuesDecoded atomic.Int64
	valuesSkipped atomic.Int64
	probes        atomic.Int64
	chainResolved atomic.Int64
}

// Counters is a point-in-time snapshot of Stats.
type Counters struct {
	// RowsScanned counts rows produced by base-table access (seq scans,
	// index scans, index-NL-join inner fetches).
	RowsScanned int64
	// ScanBatches counts page/rid batches those accesses materialized.
	ScanBatches int64
	// ValuesDecoded / ValuesSkipped count column values materialized vs
	// skipped by column pruning — the decode savings.
	ValuesDecoded int64
	ValuesSkipped int64
	// VersionedProbes counts index probes run under a snapshot over a
	// table with version chains (an index scan, one index-NL-join
	// outer row, or a DML gather through an index); ChainRIDsResolved
	// counts the chained RIDs those probes resolved. Their ratio is
	// about the rows a probe matches, not the table's chain count.
	VersionedProbes   int64
	ChainRIDsResolved int64
}

// Snapshot returns current counter values.
func (s *Stats) Snapshot() Counters {
	return Counters{
		RowsScanned:   s.rowsScanned.Load(),
		ScanBatches:   s.scanBatches.Load(),
		ValuesDecoded: s.valuesDecoded.Load(),
		ValuesSkipped: s.valuesSkipped.Load(),

		VersionedProbes:   s.probes.Load(),
		ChainRIDsResolved: s.chainResolved.Load(),
	}
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.rowsScanned.Store(0)
	s.scanBatches.Store(0)
	s.valuesDecoded.Store(0)
	s.valuesSkipped.Store(0)
	s.probes.Store(0)
	s.chainResolved.Store(0)
}

// scanCounters is the per-iterator local accumulator.
type scanCounters struct {
	rows, batches, decoded, skipped int64
	probes, resolved                int64
}

// flush adds the local counts to the execution's Stats (nil-safe) and
// zeroes them so Close is idempotent.
func (c *scanCounters) flush(ctx *Context) {
	if ctx == nil || ctx.Stats == nil {
		*c = scanCounters{}
		return
	}
	st := ctx.Stats
	st.rowsScanned.Add(c.rows)
	st.scanBatches.Add(c.batches)
	st.valuesDecoded.Add(c.decoded)
	st.valuesSkipped.Add(c.skipped)
	st.probes.Add(c.probes)
	st.chainResolved.Add(c.resolved)
	*c = scanCounters{}
}

// needMask expands a sorted needed-ordinal list into a width-sized
// lookup mask for types.DecodeRowPartial; nil means decode everything.
func needMask(needed []int, width int) []bool {
	if needed == nil {
		return nil
	}
	m := make([]bool, width)
	for _, ord := range needed {
		if ord >= 0 && ord < width {
			m[ord] = true
		}
	}
	return m
}
