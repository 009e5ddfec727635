package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
)

// counters is one reading of every public Stats snapshot the layers
// expose, plus the Go runtime's allocation and CPU accounting.
type counters struct {
	eng     engine.Stats
	srv     server.Stats
	hasSrv  bool
	runtime [5]float64 // see runtimeSamples
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters(b *bed) counters {
	c := counters{eng: b.db.Stats()}
	if b.srv != nil {
		c.srv, c.hasSrv = b.srv.Stats(), true
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			c.runtime[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			c.runtime[i] = s[i].Value.Float64()
		}
	}
	return c
}

// chainSampler samples Σ len(Table.Vers.RIDs()) over every table — the
// version chains an MVCC read may have to walk — at a fixed period.
type chainSampler struct {
	tables  []*catalog.Table
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func startChainSampler(db *engine.DB, every time.Duration) *chainSampler {
	cs := &chainSampler{stop: make(chan struct{})}
	for _, name := range db.Catalog().TableNames() {
		if t, err := db.Catalog().Table(name); err == nil {
			cs.tables = append(cs.tables, t)
		}
	}
	cs.done.Add(1)
	go func() {
		defer cs.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-cs.stop:
				return
			case <-tick.C:
				n := 0
				for _, t := range cs.tables {
					n += len(t.Vers.RIDs())
				}
				cs.samples = append(cs.samples, float64(n))
			}
		}
	}()
	return cs
}

// finish stops the sampler, waits for it, and returns the median sample.
func (cs *chainSampler) finish() float64 {
	close(cs.stop)
	cs.done.Wait()
	return median(cs.samples)
}

// window is what one measured (or traced) window produced.
type window struct {
	start   time.Time
	elapsed time.Duration
	recs    []*recorder
	before  counters
	after   counters
	tracers []*tracer
	chains  float64

	completed int64 // actions that succeeded inside the window
}

func (w *window) sum(f func(*recorder) int64) int64 {
	var n int64
	for _, r := range w.recs {
		n += f(r)
	}
	return n
}

func (w *window) actions() int64 { return w.completed }

func (w *window) actionsPerSec() float64 { return float64(w.completed) / w.elapsed.Seconds() }

// perSecond counts the successful actions completed in each whole
// second of the window.
func (w *window) perSecond() []float64 {
	out := make([]float64, int(w.elapsed/time.Second))
	for _, r := range w.recs {
		for _, t := range r.ends {
			if i := int(t.Sub(w.start) / time.Second); i < len(out) {
				out[i]++
			}
		}
	}
	return out
}

// layerMetrics derives every per-layer metric of a traced window. Each
// is a count, time or ratio per completed action (or per the unit its
// name gives), from counter deltas read at the window's boundaries and
// from the spans recorded inside it.
func layerMetrics(w *window) map[string]float64 {
	acts := float64(max(w.actions(), 1))
	b, a := w.before, w.after
	de, ds := diffEngine(b.eng, a.eng), diffServer(b.srv, a.srv)
	spans := spanTotals(w.tracers)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	spanTotal := func(names ...string) time.Duration {
		var t time.Duration
		for _, n := range names {
			if s := spans[n]; s != nil {
				t += s.Total
			}
		}
		return t
	}
	m := map[string]float64{}

	// protocol: the shadow codec of the wire path (zero in-process).
	m["protocol.encode_us"] = us(spanTotal("protocol.Encode")) / acts
	m["protocol.decode_us"] = us(spanTotal("protocol.Decode")) / acts
	m["protocol.bytes_per_action"] = float64(w.sum(func(r *recorder) int64 { return r.codecBytes })) / acts

	// server: admission-queue wait and pipelining.
	m["server.exec_wait_us_per_stmt"] = ratio(float64(ds.ExecWaitMicros), float64(ds.Statements))
	m["server.stmts_per_batch"] = ratio(float64(ds.Statements), float64(ds.Batches))

	// sql and core. In-process every statement is parsed and rewritten
	// under a span. Over the wire the server does it out of sight: the
	// rewrite cache's counters give how many parses (everything but a
	// raw-text hit) and rewrites (misses and inserts; transaction
	// control is parsed, never rewritten) it did, priced at the mean
	// time of the benchmark's shadow calls on the same statements.
	txnStmts := w.sum(func(r *recorder) int64 { return r.txnStmts })
	logical := float64(w.sum(func(r *recorder) int64 { return r.stmts }))
	var parse, rewrite float64
	if a.hasSrv {
		parses := ds.RewriteTemplateHits + ds.RewriteMisses + ds.RewriteUncacheable
		rewrites := max(ds.RewriteMisses+ds.RewriteUncacheable-txnStmts, 0)
		pn, pt := w.sum(func(r *recorder) int64 { return r.parseN }), w.sum(func(r *recorder) int64 { return int64(r.parseTime) })
		rn, rt := w.sum(func(r *recorder) int64 { return r.rewriteN }), w.sum(func(r *recorder) int64 { return int64(r.rewriteTime) })
		parse = float64(parses) * ratio(us(time.Duration(pt)), float64(pn))
		rewrite = float64(rewrites) * ratio(us(time.Duration(rt)), float64(rn))
		hits := ds.RewriteHits + ds.RewriteTemplateHits
		m["core.rewrite_hit_rate"] = ratio(float64(hits), float64(hits+ds.RewriteMisses))
	} else {
		parse = us(spanTotal("sql.Parse"))
		rewrite = us(spanTotal("Layout.Rewrite"))
		m["core.rewrite_hit_rate"] = 0 // no rewrite cache on this path
	}
	m["sql.parse_us"] = parse / acts
	m["core.rewrite_us"] = rewrite / acts
	planLookups := float64(de.PlanCacheHits + de.PlanCacheMisses)
	m["core.phys_stmts_per_stmt"] = ratio(planLookups, logical)
	m["plan.cache_hit_rate"] = ratio(float64(de.PlanCacheHits), planLookups)

	// engine: self time is the statement call minus the parse and
	// rewrite inside it. Over the wire the call is the Pipeline round
	// trip, so the residual also holds the loopback, the real codec and
	// the server's scheduling; the admission wait is taken out.
	var self float64
	if a.hasSrv {
		self = us(spanTotal("client.Conn.Pipeline", "COMMIT")) - float64(ds.ExecWaitMicros) - parse - rewrite -
			us(spanTotal("protocol.Encode", "protocol.Decode"))
	} else {
		self = us(spanTotal("core.Mapper.Query", "core.Mapper.Exec")) - parse - rewrite
	}
	m["engine.self_us"] = max(self, 0) / acts
	m["engine.lock_wait_us"] = float64(de.LockWaitNanos) / 1e3 / acts
	m["engine.admission_wait_us"] = float64(de.AdmissionWaitNanos) / 1e3 / acts
	m["engine.row_wait_us"] = float64(de.RowWaitNanos) / 1e3 / acts
	m["engine.commit_us"] = ratio(us(spanTotal("COMMIT")), float64(countSpans(spans, "COMMIT")))

	// mvcc
	m["mvcc.chained_rids"] = w.chains
	m["mvcc.publish_batch_mean"] = ratio(float64(de.PublishedTxns), float64(de.PublishBatches))

	// exec
	rows := float64(w.sum(func(r *recorder) int64 { return r.rows }))
	m["exec.rows_scanned_per_row_returned"] = ratio(float64(de.Exec.RowsScanned), rows)
	m["exec.values_decoded_per_action"] = float64(de.Exec.ValuesDecoded) / acts
	m["exec.values_skipped_frac"] = ratio(float64(de.Exec.ValuesSkipped), float64(de.Exec.ValuesDecoded+de.Exec.ValuesSkipped))

	// btree and storage
	p := de.Pool
	m["btree.index_reads_per_action"] = float64(p.LogicalReads[storage.CatIndex]) / acts
	m["storage.data_hit_rate"] = p.HitRatio(storage.CatData)
	m["storage.index_hit_rate"] = p.HitRatio(storage.CatIndex)
	m["storage.phys_reads_per_action"] = float64(p.TotalPhysicalReads()) / acts
	m["storage.evictions_per_action"] = float64(p.Evictions) / acts

	// wal
	m["wal.bytes_per_commit"] = ratio(float64(de.WAL.BytesAppended), float64(de.WAL.Commits))
	m["wal.records_per_commit"] = ratio(float64(de.WAL.Records), float64(de.WAL.Commits))
	m["wal.syncs_per_commit"] = ratio(float64(de.WAL.Syncs), float64(de.WAL.Commits))

	// runtime
	rt := func(i int) float64 { return a.runtime[i] - b.runtime[i] }
	m["runtime.alloc_bytes_per_action"] = rt(0) / acts
	m["runtime.allocs_per_action"] = rt(1) / acts
	m["runtime.gc_cpu_frac"] = ratio(rt(2), rt(3)-rt(4))
	return m
}

func countSpans(spans map[string]*spanTotal, name string) int64 {
	if s := spans[name]; s != nil {
		return s.Count
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// diffEngine subtracts the cumulative engine counters the metrics use.
func diffEngine(b, a engine.Stats) engine.Stats {
	var d engine.Stats
	for c := range a.Pool.LogicalReads {
		d.Pool.LogicalReads[c] = a.Pool.LogicalReads[c] - b.Pool.LogicalReads[c]
		d.Pool.PhysicalReads[c] = a.Pool.PhysicalReads[c] - b.Pool.PhysicalReads[c]
	}
	d.Pool.Evictions = a.Pool.Evictions - b.Pool.Evictions
	d.LockWaitNanos = a.LockWaitNanos - b.LockWaitNanos
	d.AdmissionWaitNanos = a.AdmissionWaitNanos - b.AdmissionWaitNanos
	d.RowWaitNanos = a.RowWaitNanos - b.RowWaitNanos
	d.PublishBatches = a.PublishBatches - b.PublishBatches
	d.PublishedTxns = a.PublishedTxns - b.PublishedTxns
	d.Exec.RowsScanned = a.Exec.RowsScanned - b.Exec.RowsScanned
	d.Exec.ValuesDecoded = a.Exec.ValuesDecoded - b.Exec.ValuesDecoded
	d.Exec.ValuesSkipped = a.Exec.ValuesSkipped - b.Exec.ValuesSkipped
	d.WAL.BytesAppended = a.WAL.BytesAppended - b.WAL.BytesAppended
	d.WAL.Records = a.WAL.Records - b.WAL.Records
	d.WAL.Syncs = a.WAL.Syncs - b.WAL.Syncs
	d.WAL.Commits = a.WAL.Commits - b.WAL.Commits
	d.PlanCacheHits = a.PlanCacheHits - b.PlanCacheHits
	d.PlanCacheMisses = a.PlanCacheMisses - b.PlanCacheMisses
	return d
}

// diffServer subtracts the cumulative server counters the metrics use.
func diffServer(b, a server.Stats) server.Stats {
	return server.Stats{
		Statements:          a.Statements - b.Statements,
		Batches:             a.Batches - b.Batches,
		ExecWaitMicros:      a.ExecWaitMicros - b.ExecWaitMicros,
		RewriteHits:         a.RewriteHits - b.RewriteHits,
		RewriteTemplateHits: a.RewriteTemplateHits - b.RewriteTemplateHits,
		RewriteMisses:       a.RewriteMisses - b.RewriteMisses,
		RewriteUncacheable:  a.RewriteUncacheable - b.RewriteUncacheable,
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean averages the values between the first and third
// quartiles: a throughput robust to a stalled or a bursting second.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if lo >= hi {
		return median(s)
	}
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
