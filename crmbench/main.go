// Command crmbench is the repository's benchmark: the paper's CRM
// testbed (Figure 6 card deck over the Figure 5 schema) run as three
// workloads that stress different layers.
//
//	crm_wire             Basic layout over TCP loopback: client pipelining,
//	                     protocol, server, rewrite and plan caches; fits in memory.
//	fold_cold            Chunk Folding with tenant extensions in-process through
//	                     the uncached autocommit core.Mapper; data 4x the buffer
//	                     pool with a simulated read latency.
//	report_under_writes  One wire writer of DML cards beside one reader holding a
//	                     snapshot across hundreds of reports per tenant.
//
// Every client runs a closed loop: it sends its next action only after
// the reply to the previous one. A run sets the system up several
// times (timing each), warms it, measures one window, then checks its
// outputs. With --trace 1 the window is split: an untraced half and a
// traced half that records spans around each public call and reports
// per-layer metrics. Run it from the repository root:
//
//	python3 crmbench/run.py --workload crm_wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/testbed"
)

// warmupActions is the least number of actions each client runs
// before the measured window opens.
const warmupActions = 500

// setups is how many times a run sets the system up; setup_s is the
// median of their times.
const setups = 3

// spec is one workload's fixed shape.
type spec struct {
	sizes
	wire       bool
	clients    int
	readerTurn int // report_under_writes: queries per reader snapshot
}

var specs = map[string]spec{
	"crm_wire": {
		sizes: sizes{Tenants: 32, Rows: 32, PoolBytes: 64 << 20, Turn: 50},
		wire:  true, clients: 2,
	},
	"fold_cold": {
		sizes: sizes{Tenants: 40, Rows: 40, PoolBytes: 1 << 20, ReadLatency: time.Microsecond,
			Extensions: true, Turn: 1},
		clients: 2,
	},
	"report_under_writes": {
		sizes: sizes{Tenants: 32, Rows: 32, PoolBytes: 64 << 20, Turn: 50},
		wire:  true, clients: 2, readerTurn: 300,
	},
}

// End-to-end and per-layer metric names with their units, in the order
// BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"select_light_p50_ms", "ms"},
	{"select_light_p99_ms", "ms"},
	{"select_heavy_p50_ms", "ms"},
	{"select_heavy_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"store_bytes_per_row", "B"},
}

var perLayer = []metricDef{
	{"protocol.encode_us", "us"},
	{"protocol.decode_us", "us"},
	{"protocol.bytes_per_action", "B"},
	{"server.exec_wait_us_per_stmt", "us"},
	{"server.stmts_per_batch", "count"},
	{"sql.parse_us", "us"},
	{"core.rewrite_us", "us"},
	{"core.rewrite_hit_rate", "ratio"},
	{"core.phys_stmts_per_stmt", "count"},
	{"plan.cache_hit_rate", "ratio"},
	{"engine.self_us", "us"},
	{"engine.lock_wait_us", "us"},
	{"engine.admission_wait_us", "us"},
	{"engine.row_wait_us", "us"},
	{"engine.commit_us", "us"},
	{"mvcc.chained_rids", "count"},
	{"mvcc.publish_batch_mean", "count"},
	{"exec.rows_scanned_per_row_returned", "count"},
	{"exec.values_decoded_per_action", "count"},
	{"exec.values_skipped_frac", "ratio"},
	{"btree.index_reads_per_action", "count"},
	{"storage.data_hit_rate", "ratio"},
	{"storage.index_hit_rate", "ratio"},
	{"storage.phys_reads_per_action", "count"},
	{"storage.evictions_per_action", "count"},
	{"wal.bytes_per_commit", "B"},
	{"wal.records_per_commit", "count"},
	{"wal.syncs_per_commit", "count"},
	{"runtime.alloc_bytes_per_action", "B"},
	{"runtime.allocs_per_action", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.untraced_actions_per_s", "1/s"},
	{"trace.traced_actions_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// actor is one closed-loop client.
type actor interface {
	act() error   // run one action and wait for its reply
	leave() error // end the client's session (outside any timing)
}

func (a *foldActor) leave() error { return nil }

// phases timestamps a run's stages; set-up and teardown must fall
// outside the measured window.
type phases struct {
	setupEnd, windowStart, windowEnd, teardownStart time.Time
}

// outcome is everything one run produced.
type outcome struct {
	res     result
	stamp   stamp
	phases  phases
	recs    []*recorder
	report  []string
	spans   []*tracer
	gateErr error
}

func main() {
	workload := flag.String("workload", "", "crm_wire, fold_cold or report_under_writes")
	seed := flag.Int64("seed", 1, "input seed: data, decks and statements")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced window")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "crmbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	out, err := run(*workload, sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, setups)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crmbench: %v\n", err)
		os.Exit(1)
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "crmbench: %v\n", err)
			os.Exit(1)
		}
		out.report = append(out.report, "spans written to "+path)
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	st, _ := json.Marshal(out.stamp)
	fmt.Printf("stamp %s\n", st)
	if out.gateErr != nil {
		fmt.Printf("correctness gate FAILED: %v\n", out.gateErr)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crmbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var ns []string
	for n := range specs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// run performs one benchmark run: setups set-ups (each timed, all but
// the last discarded), a warm-up, the measured window, and the
// correctness gate. An error means the harness itself could not run;
// wrong outputs are reported through result.Correct.
func run(name string, sp spec, seed int64, length time.Duration, traced bool, setups int) (*outcome, error) {
	out := &outcome{stamp: hostStamp()}
	z := sp.sizes
	out.stamp.ReadLatencyP50Us, out.stamp.ReadLatencyP99Us = calibrateSleep(z.ReadLatency)

	var w0 *bed
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w0 != nil {
			w0.close()
			w0 = nil
		}
		runtime.GC()
		t0 := time.Now()
		b, err := provision(z, seed, sp.wire)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if sp.wire {
			// Start the clients' sessions: each dials the first tenant of
			// its rotation, as part of set-up.
			for c := 0; c < sp.clients; c++ {
				conn, err := dial(b.addr, firstTenant(sp, z, c))
				if err != nil {
					b.close()
					return nil, fmt.Errorf("set-up: %w", err)
				}
				b.conns = append(b.conns, conn)
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		w0 = b
	}
	b := w0
	out.phases.setupEnd = time.Now()

	// The clients' tenant sets and statement streams.
	var streams []*stream
	var snapshot []bool
	if sp.readerTurn > 0 {
		all := allTenants(z.Tenants)
		streams = append(streams, newStream(b.workload, seed, 0, all, z.Turn, writeClasses))
		streams = append(streams, newStream(b.workload, seed, 1, all, sp.readerTurn, readClasses))
		snapshot = []bool{false, true}
	} else {
		for c, ts := range partition(z.Tenants, sp.clients) {
			streams = append(streams, newStream(b.workload, seed, c, ts, z.Turn, nil))
			snapshot = append(snapshot, false)
		}
	}

	actors := make([]actor, len(streams))
	for i, s := range streams {
		rec := newRecorder()
		out.recs = append(out.recs, rec)
		if sp.wire {
			wa := &wireActor{addr: b.addr, s: s, rec: rec, layout: b.layout, conn: b.conns[i], snapshot: snapshot[i]}
			if wa.snapshot {
				if _, err := wa.conn.Exec("BEGIN"); err != nil {
					return nil, fmt.Errorf("reader BEGIN: %w", err)
				}
				wa.inTxn = true
			}
			actors[i] = wa
		} else {
			actors[i] = &foldActor{b: b, s: s, rec: rec}
		}
	}
	b.conns = nil // owned by the actors from here on

	// Warm-up: every client makes one full rotation through its tenants,
	// and at least warmupActions actions, so the caches hold the
	// steady-state statement set and the buffer pool its working set.
	var warm int64
	warmup := make([]int, len(streams))
	for i, s := range streams {
		warmup[i] = max(len(s.tenants)*s.turn, warmupActions)
		warm += int64(warmup[i])
	}
	if err := loop(actors, func(i int) bool { return streams[i].dealt < warmup[i] }); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, r := range out.recs {
		if r.firstErr != nil {
			return nil, fmt.Errorf("warm-up: %w", r.firstErr)
		}
	}
	for _, r := range out.recs {
		r.reset()
	}

	var plain, trc *window
	var err error
	if traced {
		half := length / 2
		if plain, err = measure(b, actors, out.recs, half, false); err != nil {
			return nil, err
		}
		out.phases.windowStart = plain.start
		for _, r := range out.recs {
			r.reset()
		}
		if trc, err = measure(b, actors, out.recs, length-half, true); err != nil {
			return nil, err
		}
		out.phases.windowEnd = trc.start.Add(trc.elapsed)
	} else {
		if plain, err = measure(b, actors, out.recs, length, false); err != nil {
			return nil, err
		}
		out.phases.windowStart = plain.start
		out.phases.windowEnd = plain.start.Add(plain.elapsed)
	}

	out.phases.teardownStart = time.Now()
	var leaveErr error
	for _, a := range actors {
		if err := a.leave(); err != nil && leaveErr == nil {
			leaveErr = err
		}
	}
	storeBytes := int64(b.db.Disk().NumPages()) * int64(b.db.Disk().PageSize())

	// Correctness gate.
	gate := func() error {
		if leaveErr != nil {
			return leaveErr
		}
		if err := drain(b); err != nil {
			return err
		}
		if b.srv != nil {
			b.srv.Close()
		}
		if err := checkLedger(b, z, out.recs); err != nil {
			return err
		}
		return checkCrash(b)
	}
	out.gateErr = gate()
	b.close()

	final := plain
	if traced {
		final = trc
	}
	var attempted, failed int64
	for _, r := range final.recs {
		attempted += r.attempted
		failed += r.failed
		if r.firstErr != nil && out.gateErr == nil {
			out.gateErr = fmt.Errorf("%d of %d actions failed, first: %w", failed, attempted, r.firstErr)
		}
	}
	if attempted == 0 && out.gateErr == nil {
		out.gateErr = fmt.Errorf("no action completed in the window")
	}
	out.res = result{Correct: out.gateErr == nil, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}

	rows := int64(z.Tenants) * int64(len(testbed.CRMTables)) * int64(z.Rows)
	for _, r := range out.recs {
		for _, n := range r.inserted {
			rows += n
		}
	}
	lat := latencies(final.recs)
	e2e := map[string]float64{
		"setup_s":             median(setupTimes),
		"actions_per_s":       interquartileMean(final.perSecond()),
		"select_light_p50_ms": quantile(lat[kindSelectLight], 0.50),
		"select_light_p99_ms": quantile(lat[kindSelectLight], 0.99),
		"select_heavy_p50_ms": quantile(lat[kindSelectHeavy], 0.50),
		"select_heavy_p99_ms": quantile(lat[kindSelectHeavy], 0.99),
		"write_p50_ms":        quantile(lat[kindWrite], 0.50),
		"write_p99_ms":        quantile(lat[kindWrite], 0.99),
		"store_bytes_per_row": float64(storeBytes) / float64(rows),
	}
	out.report = append(out.report, fmt.Sprintf("workload %s seed %d: %d clients, %d tenants x %d rows x %d tables, window %.1fs, closed loop",
		name, seed, len(actors), z.Tenants, z.Rows, len(testbed.CRMTables), final.elapsed.Seconds()))
	out.report = append(out.report, fmt.Sprintf("set-up times (s): %s", floats(setupTimes)))
	out.report = append(out.report, fmt.Sprintf("actions per second of the window: %s", floats(final.perSecond())))
	out.report = append(out.report, fmt.Sprintf("attempted %d, failed %d, failed_frac %.6f", attempted, failed, ratio(float64(failed), float64(attempted))))
	for k, n := range []string{"select_light", "select_heavy", "write"} {
		out.report = append(out.report, fmt.Sprintf("%-12s samples %6d  p50 %8.3f ms  p99 %8.3f ms", n, len(lat[k]), quantile(lat[k], 0.5), quantile(lat[k], 0.99)))
	}
	for _, m := range endToEnd {
		out.report = append(out.report, fmt.Sprintf("  %-22s %14.4f %s", m.name, e2e[m.name], m.unit))
	}

	if traced {
		lm := layerMetrics(trc)
		lm["trace.untraced_actions_per_s"] = plain.actionsPerSec()
		lm["trace.traced_actions_per_s"] = trc.actionsPerSec()
		lm["trace.overhead_frac"] = 1 - ratio(trc.actionsPerSec(), plain.actionsPerSec())
		for _, m := range perLayer {
			out.res.Metrics[m.name] = metricValue{Value: lm[m.name], Unit: m.unit}
			out.report = append(out.report, fmt.Sprintf("  %-36s %14.4f %s", m.name, lm[m.name], m.unit))
		}
		out.report = append(out.report, selfTimeTable(trc)...)
		out.spans = trc.tracers
	} else {
		for _, m := range endToEnd {
			out.res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	}

	out.stamp.Workload, out.stamp.Seed, out.stamp.Seconds = name, seed, length.Seconds()
	out.stamp.Clients, out.stamp.Tenants, out.stamp.RowsPerTable = len(actors), z.Tenants, z.Rows
	out.stamp.PoolBytes, out.stamp.DataBytes = z.PoolBytes, b.loadedBytes
	out.stamp.Layout = b.layout.Name()
	out.stamp.GroupCommit = true
	out.stamp.SyncLatencyUs = float64(z.SyncLatency.Microseconds())
	out.stamp.ReadLatencyUs = float64(z.ReadLatency.Microseconds())
	out.stamp.RewriteCache = sp.wire
	out.stamp.Setups, out.stamp.WarmupActions = setups, warm
	out.stamp.ClosedLoop, out.stamp.TracedWindowed = true, traced
	return out, nil
}

// firstTenant is the tenant client c's rotation starts at.
func firstTenant(sp spec, z sizes, c int) int {
	if sp.readerTurn > 0 {
		return 0
	}
	return partition(z.Tenants, sp.clients)[c][0]
}

// loop runs every actor in its own goroutine while more(i) holds.
func loop(actors []actor, more func(i int) bool) error {
	errs := make([]error, len(actors))
	var wg sync.WaitGroup
	for i, a := range actors {
		wg.Add(1)
		go func(i int, a actor) {
			defer wg.Done()
			for more(i) {
				if err := a.act(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs one closed-loop window of length d and reads the
// counters at its boundaries. Traced, every actor records spans and a
// sampler gauges the MVCC version chains.
func measure(b *bed, actors []actor, recs []*recorder, d time.Duration, traced bool) (*window, error) {
	runtime.GC()
	w := &window{recs: recs}
	var cs *chainSampler
	if traced {
		cs = startChainSampler(b.db, 20*time.Millisecond)
	}
	w.before = readCounters(b)
	w.start = time.Now()
	for i, a := range actors {
		var tr *tracer
		if traced {
			tr = newTracer(i, w.start)
			w.tracers = append(w.tracers, tr)
		}
		setTracer(a, tr)
	}
	deadline := w.start.Add(d)
	err := loop(actors, func(int) bool { return time.Now().Before(deadline) })
	w.elapsed = time.Since(w.start)
	w.after = readCounters(b)
	w.completed = w.sum(func(r *recorder) int64 { return r.attempted - r.failed })
	if cs != nil {
		w.chains = cs.finish()
	}
	for _, a := range actors {
		setTracer(a, nil)
	}
	return w, err
}

func setTracer(a actor, t *tracer) {
	switch a := a.(type) {
	case *wireActor:
		a.tr = t
	case *foldActor:
		a.tr = t
	}
}

// latencies merges the clients' samples per kind, in milliseconds.
func latencies(recs []*recorder) [numKinds][]float64 {
	var out [numKinds][]float64
	for _, r := range recs {
		for k := range r.lat {
			for _, d := range r.lat[k] {
				out[k] = append(out[k], float64(d.Nanoseconds())/1e6)
			}
		}
	}
	return out
}

// selfTimeTable lists per span name the calls, and the mean total and
// self time per action.
func selfTimeTable(w *window) []string {
	st := spanTotals(w.tracers)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	acts := float64(max(w.actions(), 1))
	lines := []string{fmt.Sprintf("  %-24s %10s %14s %14s", "span", "calls", "total us/act", "self us/act")}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("  %-24s %10d %14.2f %14.2f", n, s.Count,
			float64(s.Total.Nanoseconds())/1e3/acts, float64(s.Self.Nanoseconds())/1e3/acts))
	}
	return lines
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// calibrateSleep measures what the host's timers make of the simulated
// read latency (the disk sleeps it per miss): the p50 and p99 of 200
// sleeps, in microseconds. Zero latency is never slept.
func calibrateSleep(d time.Duration) (p50, p99 float64) {
	if d <= 0 {
		return 0, 0
	}
	xs := make([]float64, 200)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(d)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return quantile(xs, 0.5), quantile(xs, 0.99)
}
