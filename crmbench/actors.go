package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/sql"
	"repro/internal/testbed"
)

// Latency kinds an action is filed under.
const (
	kindSelectLight = iota
	kindSelectHeavy
	kindWrite
	numKinds
)

func kindOf(c testbed.ActionClass) int {
	switch c {
	case testbed.SelectLight:
		return kindSelectLight
	case testbed.SelectHeavy:
		return kindSelectHeavy
	}
	return kindWrite
}

// ledgerKey names one tenant's logical table.
type ledgerKey struct {
	tenant int
	table  string
}

// recorder accumulates one client's outcomes. Everything but inserted
// is reset when the measured window opens; inserted is the insert
// ledger and counts every acknowledged row from the first action on.
type recorder struct {
	lat       [numKinds][]time.Duration
	attempted int64
	failed    int64
	firstErr  error
	rows      int64 // rows returned by queries
	stmts     int64 // logical statements sent, transaction control excluded
	txnStmts  int64 // BEGIN / COMMIT / ROLLBACK sent
	first     time.Time
	last      time.Time // start of the first and end of the last timed action
	inserted  map[ledgerKey]int64
	ends      []time.Time // completion times of the successful actions

	// Shadow measurements of the traced wire path (see wireActor.shadow).
	codecBytes  int64
	parseN      int64
	parseTime   time.Duration
	rewriteN    int64
	rewriteTime time.Duration
}

func newRecorder() *recorder { return &recorder{inserted: map[ledgerKey]int64{}} }

// reset clears everything the measured window reports.
func (r *recorder) reset() {
	ins := r.inserted
	*r = recorder{inserted: ins}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// record files one completed action.
func (r *recorder) record(class testbed.ActionClass, t0, t1 time.Time, ok bool) {
	r.attempted++
	if r.first.IsZero() {
		r.first = t0
	}
	r.last = t1
	if ok {
		k := kindOf(class)
		r.lat[k] = append(r.lat[k], t1.Sub(t0))
		r.ends = append(r.ends, t1)
	}
}

// check verifies one statement's reply against what the generator
// knows: an entity-detail read finds exactly its entity, an insert
// inserts every row it carries, and an update by entity ID hits one row.
func check(w *testbed.Workload, a testbed.Action, stmt string, rows int, affected int64, query bool) error {
	switch {
	case query && a.Class == testbed.SelectLight && rows != 1:
		return fmt.Errorf("entity read %q returned %d rows", stmt, rows)
	case strings.HasPrefix(stmt, "INSERT") && affected != insertedRows(w, a.Class):
		return fmt.Errorf("insert %.60q affected %d rows", stmt, affected)
	case strings.HasPrefix(stmt, "UPDATE") && strings.Contains(stmt, " WHERE Id = ") && affected != 1:
		return fmt.Errorf("update %q affected %d rows", stmt, affected)
	}
	return nil
}

// insertKey is the ledger entry an INSERT of the generator adds to.
func insertKey(tenant int, stmt string) (ledgerKey, bool) {
	f := strings.Fields(stmt)
	if len(f) < 3 || f[0] != "INSERT" {
		return ledgerKey{}, false
	}
	return ledgerKey{tenant, strings.ToLower(f[2])}, true
}

// wireActor is one client connection. It authenticates as one tenant
// at a time and re-dials between tenant turns, outside the timed
// action. With snapshot set (the reader of report_under_writes) each
// turn is one transaction: BEGIN on arrival, COMMIT on leaving, every
// query of the turn reading the same snapshot.
type wireActor struct {
	addr     string
	s        *stream
	rec      *recorder
	tr       *tracer
	layout   core.Layout // for the traced run's shadow rewrites
	conn     *client.Conn
	snapshot bool
	inTxn    bool
}

// turn moves the connection to the stream's next tenant.
func (a *wireActor) turn() error {
	if err := a.leave(); err != nil {
		return err
	}
	c, err := dial(a.addr, a.s.tenant())
	if err != nil {
		return err
	}
	a.conn = c
	if a.snapshot {
		if _, err := a.conn.Exec("BEGIN"); err != nil {
			return fmt.Errorf("reader BEGIN: %w", err)
		}
		a.rec.txnStmts++
		a.inTxn = true
	}
	return nil
}

// leave ends the current tenant turn: commits the reader's snapshot
// transaction and closes the connection.
func (a *wireActor) leave() error {
	if a.conn == nil {
		return nil
	}
	var err error
	if a.inTxn {
		if _, err = a.conn.Exec("COMMIT"); err != nil {
			err = fmt.Errorf("reader COMMIT: %w", err)
		}
		a.rec.txnStmts++
		a.inTxn = false
	}
	a.conn.Close()
	a.conn = nil
	return err
}

// act runs one action. A transport failure or a failed re-dial is
// returned and ends the run; a statement that fails or answers wrongly
// counts the action as failed.
func (a *wireActor) act() error {
	if a.conn == nil || a.s.turnStart() {
		if err := a.turn(); err != nil {
			return err
		}
	}
	tenant := a.s.tenant()
	act := a.s.next()
	stmts := make([]client.PipelineStmt, 0, len(act.Queries)+len(act.Execs)+2)
	for _, q := range act.Queries {
		stmts = append(stmts, client.PipelineStmt{Query: true, SQL: q})
	}
	txn := len(act.Execs) > 0
	if txn {
		stmts = append(stmts, client.PipelineStmt{SQL: "BEGIN"})
		for _, e := range act.Execs {
			stmts = append(stmts, client.PipelineStmt{SQL: e})
		}
		stmts = append(stmts, client.PipelineStmt{SQL: "COMMIT"})
		a.rec.txnStmts += 2
	}
	a.rec.stmts += int64(len(act.Queries) + len(act.Execs))

	root := a.tr.root("action")
	t0 := time.Now()
	var results []client.PipelineResult
	var err error
	if a.tr != nil && txn {
		// The traced run sends COMMIT as its own frame so its time has
		// a span of its own.
		body := a.tr.begin("client.Conn.Pipeline", root)
		results, err = a.conn.Pipeline(stmts[:len(stmts)-1])
		a.tr.end(body)
		if err == nil && pipelineOK(results) {
			commit := a.tr.begin("COMMIT", root)
			var cr []client.PipelineResult
			cr, err = a.conn.Pipeline(stmts[len(stmts)-1:])
			a.tr.end(commit)
			results = append(results, cr...)
		} else if err == nil {
			results = append(results, client.PipelineResult{Err: &protocol.Error{Code: protocol.CodePoisoned}})
		}
	} else {
		call := a.tr.begin("client.Conn.Pipeline", root)
		results, err = a.conn.Pipeline(stmts)
		a.tr.end(call)
	}
	t1 := time.Now()
	if err != nil {
		a.rec.record(act.Class, t0, t1, false)
		return fmt.Errorf("pipeline: %w", err)
	}
	if a.tr != nil {
		a.shadow(root, tenant, stmts, results)
	}
	a.tr.end(root)

	ok, open := true, false
	for i, r := range results {
		if r.Err != nil {
			if !r.Poisoned() && ok {
				a.rec.fail(fmt.Errorf("%s: %.80q: %w", act.Class, stmts[i].SQL, r.Err))
			}
			ok, open = false, txn
			continue
		}
		n := 0
		if r.Rows != nil {
			n = len(r.Rows.Data)
			a.rec.rows += int64(n)
		}
		if cerr := check(a.s.w, act, stmts[i].SQL, n, r.RowsAffected, stmts[i].Query); cerr != nil && ok {
			a.rec.fail(cerr)
			ok = false
		}
	}
	if open {
		// A statement of the transaction failed, so COMMIT never ran.
		if _, err := a.conn.Exec("ROLLBACK"); err != nil {
			return fmt.Errorf("rollback after failed action: %w", err)
		}
		a.rec.txnStmts++
	}
	if txn && results[len(results)-1].Err == nil {
		// COMMIT was acknowledged: the inserts are in the ledger.
		for _, e := range act.Execs {
			if k, isIns := insertKey(tenant, e); isIns {
				a.rec.inserted[k] += insertedRows(a.s.w, act.Class)
			}
		}
	}
	a.rec.record(act.Class, t0, t1, ok)
	return nil
}

func pipelineOK(rs []client.PipelineResult) bool {
	for _, r := range rs {
		if r.Err != nil {
			return false
		}
	}
	return true
}

func insertedRows(w *testbed.Workload, c testbed.ActionClass) int64 {
	if c == testbed.InsertHeavy {
		return int64(w.InsertHeavyBatch)
	}
	return 1
}

// maxRowBatch is the server's default rows per RowBatch frame; the
// shadow codec splits result sets the same way.
const maxRowBatch = 256

// shadow times, on the traced wire path, the layer calls the server
// makes out of sight: the codec on the very batch and reply messages of
// the action, and sql.Parse plus Layout.Rewrite of its statements.
// These are extra calls on the benchmark's side, so they cost the
// traced run throughput but never touch the server's state: inserts are
// parsed but not rewritten, since rewriting an INSERT draws row IDs
// from the layout.
func (a *wireActor) shadow(root, tenant int, stmts []client.PipelineStmt, results []client.PipelineResult) {
	req := &protocol.Batch{Stmts: make([]protocol.BatchStmt, len(stmts))}
	for i, st := range stmts {
		req.Stmts[i] = protocol.BatchStmt{Query: st.Query, SQL: st.SQL}
	}
	var replies []any
	for i, r := range results {
		idx := uint32(i)
		switch {
		case r.Err != nil:
			var pe *protocol.Error
			code := uint16(protocol.CodeSQL)
			if errors.As(r.Err, &pe) {
				code = pe.Code
			}
			replies = append(replies, &protocol.BatchError{Index: idx, Code: code, Msg: r.Err.Error()})
		case r.Rows != nil:
			replies = append(replies, &protocol.BatchRowsHeader{Index: idx, Columns: r.Rows.Columns})
			data := r.Rows.Data
			for {
				n := min(len(data), maxRowBatch)
				replies = append(replies, &protocol.RowBatch{Rows: data[:n], Last: n == len(data)})
				data = data[n:]
				if len(data) == 0 {
					break
				}
			}
		default:
			replies = append(replies, &protocol.BatchResult{Index: idx, RowsAffected: r.RowsAffected})
		}
	}
	replies = append(replies, &protocol.BatchDone{Executed: uint32(len(results))})

	enc := a.tr.begin("protocol.Encode", root)
	payloads := make([][]byte, 0, len(replies)+1)
	payloads = append(payloads, protocol.Encode(req))
	for _, m := range replies {
		payloads = append(payloads, protocol.Encode(m))
	}
	a.tr.end(enc)
	dec := a.tr.begin("protocol.Decode", root)
	for _, p := range payloads {
		if _, err := protocol.Decode(p); err != nil {
			a.rec.fail(fmt.Errorf("shadow decode: %w", err))
		}
	}
	a.tr.end(dec)
	const frameHeader = 8
	for _, p := range payloads {
		a.rec.codecBytes += int64(len(p) + frameHeader)
	}

	for _, st := range stmts {
		p := a.tr.begin("sql.Parse", root)
		parsed, err := sql.Parse(st.SQL)
		a.tr.end(p)
		a.rec.parseN++
		a.rec.parseTime += time.Duration(a.tr.spans[p].End - a.tr.spans[p].Start)
		if err != nil {
			a.rec.fail(fmt.Errorf("shadow parse %.60q: %w", st.SQL, err))
			continue
		}
		switch parsed.(type) {
		case *sql.SelectStmt, *sql.UpdateStmt:
		default:
			continue
		}
		rw := a.tr.begin("Layout.Rewrite", root)
		_, err = a.layout.Rewrite(int64(tenant+1), parsed)
		a.tr.end(rw)
		a.rec.rewriteN++
		a.rec.rewriteTime += time.Duration(a.tr.spans[rw].End - a.tr.spans[rw].Start)
		if err != nil {
			a.rec.fail(fmt.Errorf("shadow rewrite %.60q: %w", st.SQL, err))
		}
	}
}

// foldActor is one in-process client of fold_cold: it runs each
// statement through the uncached, autocommit core.Mapper.
type foldActor struct {
	b   *bed
	s   *stream
	rec *recorder
	tr  *tracer
}

func (a *foldActor) act() error {
	tenant := a.s.tenant()
	act := a.s.next()
	id := int64(tenant + 1)
	root := a.tr.root("action")
	t0 := time.Now()
	ok := true
	for _, q := range act.Queries {
		rows, err := a.query(root, id, q)
		a.rec.stmts++
		if err == nil {
			a.rec.rows += int64(len(rows.Data))
			err = check(a.s.w, act, q, len(rows.Data), 0, true)
		}
		if err != nil {
			a.rec.fail(fmt.Errorf("%s: %.80q: %w", act.Class, q, err))
			ok = false
			break
		}
	}
	for _, e := range act.Execs {
		if !ok {
			break
		}
		res, err := a.exec(root, id, e)
		a.rec.stmts++
		if err == nil {
			err = check(a.s.w, act, e, 0, res.RowsAffected, false)
		}
		if err != nil {
			a.rec.fail(fmt.Errorf("%s: %.80q: %w", act.Class, e, err))
			ok = false
			break
		}
		// Each statement autocommits: an acknowledged insert is durable
		// even if a later statement of the card fails.
		if k, isIns := insertKey(tenant, e); isIns {
			a.rec.inserted[k] += res.RowsAffected
		}
	}
	t1 := time.Now()
	a.tr.end(root)
	a.rec.record(act.Class, t0, t1, ok)
	return nil
}

// query runs one logical SELECT. Untraced it is core.Mapper.Query; the
// traced run makes the same calls Mapper.Query makes without a rewrite
// cache or session — sql.Parse, Layout.Rewrite, DB.QueryStmt — each
// under its own span.
func (a *foldActor) query(root int, tenant int64, q string) (*engine.Rows, error) {
	if a.tr == nil {
		return a.b.mapper.Query(tenant, q)
	}
	m := a.tr.begin("core.Mapper.Query", root)
	defer a.tr.end(m)
	st, err := a.parse(m, q)
	if err != nil {
		return nil, err
	}
	sel, isSel := st.(*sql.SelectStmt)
	if !isSel {
		return nil, fmt.Errorf("not a SELECT: %.60q", q)
	}
	rw, err := a.rewrite(m, tenant, sel)
	if err != nil {
		return nil, err
	}
	return a.engineQuery(m, rw.Query)
}

// exec runs one logical DML statement; traced, it makes the calls of
// Mapper.Exec's uncached path: parse, rewrite, then the physical
// statements of the rewrite (direct statements, or the two-phase row
// query and its per-chunk writes).
func (a *foldActor) exec(root int, tenant int64, e string) (engine.Result, error) {
	if a.tr == nil {
		return a.b.mapper.Exec(tenant, e)
	}
	m := a.tr.begin("core.Mapper.Exec", root)
	defer a.tr.end(m)
	st, err := a.parse(m, e)
	if err != nil {
		return engine.Result{}, err
	}
	rw, err := a.rewrite(m, tenant, st)
	if err != nil {
		return engine.Result{}, err
	}
	var affected int64
	for i, ps := range rw.Direct {
		res, err := a.engineExec(m, ps)
		if err != nil {
			return engine.Result{}, err
		}
		if rw.DirectIsCount && i == 0 {
			affected = res.RowsAffected
		}
	}
	if rw.Inserted > 0 {
		affected = rw.Inserted
	}
	if rw.RowQuery != nil {
		rows, err := a.engineQuery(m, rw.RowQuery)
		if err != nil {
			return engine.Result{}, err
		}
		affected = int64(len(rows.Data))
		if len(rows.Data) > 0 {
			for _, ps := range rw.PhaseB(rows.Data) {
				if _, err := a.engineExec(m, ps); err != nil {
					return engine.Result{}, err
				}
			}
		}
	}
	return engine.Result{RowsAffected: affected}, nil
}

func (a *foldActor) parse(parent int, text string) (sql.Statement, error) {
	p := a.tr.begin("sql.Parse", parent)
	defer a.tr.end(p)
	return sql.Parse(text)
}

func (a *foldActor) rewrite(parent int, tenant int64, st sql.Statement) (*core.Rewritten, error) {
	r := a.tr.begin("Layout.Rewrite", parent)
	defer a.tr.end(r)
	return a.b.layout.Rewrite(tenant, st)
}

func (a *foldActor) engineQuery(parent int, sel *sql.SelectStmt) (*engine.Rows, error) {
	e := a.tr.begin("engine.DB.QueryStmt", parent)
	defer a.tr.end(e)
	return a.b.db.QueryStmt(sel)
}

func (a *foldActor) engineExec(parent int, st sql.Statement) (engine.Result, error) {
	e := a.tr.begin("engine.DB.ExecStmt", parent)
	defer a.tr.end(e)
	return a.b.db.ExecStmt(st)
}
