package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/testbed"
)

// drain waits for the engine (and the server, for wire workloads) to
// hold no session, no active transaction and no pinned snapshot once
// every client has closed. Reaping is asynchronous, so it polls.
func drain(b *bed) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		sessions := 0
		if b.srv != nil {
			sessions = b.srv.Stats().OpenSessions
		}
		st := b.db.Stats()
		if sessions == 0 && st.ActiveTxns == 0 && st.PinnedSnapshots == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d sessions, %d active transactions, %d pinned snapshots left",
				sessions, st.ActiveTxns, st.PinnedSnapshots)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkLedger counts every tenant's rows of every logical table through
// the mapper: each must equal the rows loaded plus the inserted rows
// the clients saw acknowledged.
func checkLedger(b *bed, z sizes, recs []*recorder) error {
	want := map[ledgerKey]int64{}
	for _, r := range recs {
		for k, n := range r.inserted {
			want[k] += n
		}
	}
	for t := 0; t < z.Tenants; t++ {
		for _, base := range testbed.CRMTables {
			table := b.workload.TableFor(t, base)
			rows, err := b.mapper.Query(int64(t+1), "SELECT COUNT(*) FROM "+table)
			if err != nil {
				return fmt.Errorf("ledger: tenant %d %s: %w", t+1, table, err)
			}
			got := rows.Data[0][0].Int
			exp := int64(z.Rows) + want[ledgerKey{t, strings.ToLower(table)}]
			if got != exp {
				return fmt.Errorf("ledger: tenant %d %s has %d rows, want %d loaded + acknowledged", t+1, table, got, exp)
			}
		}
	}
	return nil
}

// contents renders every physical table as a sorted list of rows.
func contents(db *engine.DB) (map[string][]string, error) {
	out := map[string][]string{}
	for _, name := range db.Catalog().TableNames() {
		rows, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			return nil, fmt.Errorf("dump %s: %w", name, err)
		}
		lines := make([]string, len(rows.Data))
		for i, r := range rows.Data {
			lines[i] = fmt.Sprint(r)
		}
		sort.Strings(lines)
		out[strings.ToLower(name)] = lines
	}
	return out, nil
}

// checkCrash crashes the database and recovers it from its durable log
// and disk: every table must read back exactly as before the crash, so
// no acknowledged commit is lost and nothing unacknowledged appears.
func checkCrash(b *bed) error {
	b.db.Disk().ReadLatency = 0
	pre, err := contents(b.db)
	if err != nil {
		return err
	}
	db, _, err := engine.Recover(b.db.Crash())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	post, err := contents(db)
	if err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if len(pre) != len(post) {
		return fmt.Errorf("crash: %d tables before, %d after recovery", len(pre), len(post))
	}
	for name, rows := range pre {
		after := post[name]
		if len(after) != len(rows) {
			return fmt.Errorf("crash: table %s has %d rows before, %d after recovery", name, len(rows), len(after))
		}
		for i := range rows {
			if rows[i] != after[i] {
				return fmt.Errorf("crash: table %s differs after recovery: %s vs %s", name, rows[i], after[i])
			}
		}
	}
	return nil
}
