package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mvcc"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// probeFixture builds a versioned catalog with t(id, grp, val, pad) —
// a unique index on id, a non-unique one on grp — holding n rows with
// short pads, and u(k, g), a small unindexed outer table for joins.
func probeFixture(t *testing.T, n int) (*catalog.Catalog, *mvcc.Manager) {
	t.Helper()
	mgr := mvcc.NewManager()
	pool := storage.NewBufferPool(storage.NewDisk(0), 8<<20)
	cat := catalog.New(pool, catalog.Config{MemoryBytes: 8 << 20, Versions: mgr})
	tab, err := cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: types.IntType, NotNull: true},
		{Name: "grp", Type: types.IntType},
		{Name: "val", Type: types.IntType},
		{Name: "pad", Type: types.VarcharType(2000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("t", "t_pk", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("t", "t_grp", []string{"grp"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := tab.InsertRow([]types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(i % 10)),
			types.NewInt(int64(10 * i)), types.NewString("p"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	u, err := cat.CreateTable("u", []catalog.Column{
		{Name: "k", Type: types.IntType},
		{Name: "g", Type: types.IntType},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := u.InsertRow([]types.Value{types.NewInt(int64(3*i + 1)), types.NewInt(int64(i % 11))}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, mgr
}

// collectAs plans q and drains it under tx.
func collectAs(t *testing.T, cat *catalog.Catalog, tx *mvcc.Txn, q, label string) [][]types.Value {
	t.Helper()
	n := planQuery(t, cat, q)
	if label != "" && !hasNode(n, label) {
		t.Fatalf("plan for %q lacks %s:\n%s", q, label, plan.Explain(n))
	}
	rows, err := CollectTx(n, nil, nil, tx)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return rows
}

// tryDML runs one DML statement for tx; a failed statement (conflict,
// unique violation) is rolled back by RunDMLTx and reported.
func tryDML(cat *catalog.Catalog, tx *mvcc.Txn, undo *catalog.UndoLog, q string) error {
	st, err := sql.Parse(q)
	if err != nil {
		return err
	}
	p, err := plan.New(cat, plan.Sophisticated).PlanStatement(st)
	if err != nil {
		return err
	}
	_, err = RunDMLTx(p, nil, nil, tx, undo)
	return err
}

// oracleRows is t's full row set under tx, read by a sequential scan.
func oracleRows(t *testing.T, cat *catalog.Catalog, tx *mvcc.Txn) [][]types.Value {
	return collectAs(t, cat, tx, "SELECT id, grp, val, pad FROM t", "TBSCAN")
}

// filterRows keeps the oracle rows pred accepts, projected to cols.
func filterRows(rows [][]types.Value, pred func(r []types.Value) bool, cols ...int) [][]types.Value {
	var out [][]types.Value
	for _, r := range rows {
		if !pred(r) {
			continue
		}
		p := make([]types.Value, len(cols))
		for i, c := range cols {
			p[i] = r[c]
		}
		out = append(out, p)
	}
	return out
}

func diffRows(t *testing.T, what string, got, want [][]types.Value) {
	t.Helper()
	if sameResults(got, want) {
		return
	}
	g, w := renderRows(got), renderRows(want)
	sort.Strings(g)
	sort.Strings(w)
	t.Fatalf("%s:\n got %d rows %v\nwant %d rows %v", what, len(g), g, len(w), w)
}

// checkProbes compares every key-addressed access path against the
// sequential-scan oracle under one snapshot: index range and point
// scans on the unique and non-unique index (with and without column
// pruning), index-NL joins, and UPDATE/DELETE gathers through an index.
func checkProbes(t *testing.T, cat *catalog.Catalog, tx *mvcc.Txn, rng *rand.Rand, who string) {
	t.Helper()
	all := oracleRows(t, cat, tx)
	id := func(r []types.Value) int64 { return r[0].Int }
	for i := 0; i < 6; i++ {
		lo := int64(rng.Intn(90))
		hi := lo + int64(1+rng.Intn(40))
		if rng.Intn(4) == 0 {
			lo += 1000 // the key-changing updates' range
			hi += 1000
		}
		q := fmt.Sprintf("SELECT id, grp, val, pad FROM t WHERE id >= %d AND id < %d", lo, hi)
		diffRows(t, who+": "+q, collectAs(t, cat, tx, q, "IXSCAN"),
			filterRows(all, func(r []types.Value) bool { return id(r) >= lo && id(r) < hi }, 0, 1, 2, 3))

		q = fmt.Sprintf("SELECT val FROM t WHERE id = %d", lo)
		diffRows(t, who+": "+q, collectAs(t, cat, tx, q, "IXSCAN"),
			filterRows(all, func(r []types.Value) bool { return id(r) == lo }, 2))

		g := int64(rng.Intn(11))
		q = fmt.Sprintf("SELECT id, val FROM t WHERE grp = %d", g)
		diffRows(t, who+": "+q, collectAs(t, cat, tx, q, "IXSCAN"),
			filterRows(all, func(r []types.Value) bool { return !r[1].IsNull() && r[1].Int == g }, 0, 2))

		// UPDATE/DELETE gathers through each index.
		for _, dq := range []struct {
			q    string
			pred func(r []types.Value) bool
		}{
			{fmt.Sprintf("UPDATE t SET val = 0 WHERE id >= %d AND id < %d", lo, hi),
				func(r []types.Value) bool { return id(r) >= lo && id(r) < hi }},
			{fmt.Sprintf("DELETE FROM t WHERE grp = %d AND val > %d", g, lo),
				func(r []types.Value) bool { return !r[1].IsNull() && r[1].Int == g && r[2].Int > lo }},
		} {
			got := gatherRows(t, cat, tx, dq.q)
			diffRows(t, who+": gather "+dq.q, got, filterRows(all, dq.pred, 0, 1, 2, 3))
		}
	}
	// Index-NL joins probe t's grp index once per outer row and t's
	// primary key through u.k.
	us := collectAs(t, cat, tx, "SELECT k, g FROM u", "TBSCAN")
	var byGrp, byID [][]types.Value
	for _, ur := range us {
		for _, tr := range all {
			if !tr[1].IsNull() && tr[1].Int == ur[1].Int {
				byGrp = append(byGrp, []types.Value{ur[0], tr[0], tr[2]})
			}
			if tr[0].Int == ur[0].Int {
				byID = append(byID, []types.Value{ur[0], tr[0], tr[2]})
			}
		}
	}
	q := "SELECT u.k, t.id, t.val FROM u JOIN t ON t.grp = u.g"
	diffRows(t, who+": "+q, collectAs(t, cat, tx, q, "NLJOIN"), byGrp)
	q = "SELECT u.k, t.id, t.val FROM u JOIN t ON t.id = u.k"
	diffRows(t, who+": "+q, collectAs(t, cat, tx, q, "NLJOIN"), byID)
}

// gatherRows plans a DML statement and returns the rows its gather
// matches under tx (projected to id, grp, val, pad), without applying
// it. It also checks that no RID is gathered twice.
func gatherRows(t *testing.T, cat *catalog.Catalog, tx *mvcc.Txn, q string) [][]types.Value {
	t.Helper()
	n := planQuery(t, cat, q)
	var (
		tab    *catalog.Table
		path   *plan.AccessPath
		filter plan.Scalar
	)
	switch n := n.(type) {
	case *plan.UpdatePlan:
		tab, path, filter = n.Table, n.Path, n.Filter
	case *plan.DeletePlan:
		tab, path, filter = n.Table, n.Path, n.Filter
	default:
		t.Fatalf("%q planned as %T", q, n)
	}
	if path == nil {
		t.Fatalf("%q: gather does not use an index", q)
	}
	rids, rows, err := gatherMatches(tab, path, filter, &Context{Txn: tx})
	if err != nil {
		t.Fatalf("gather %q: %v", q, err)
	}
	seen := map[storage.RID]bool{}
	for _, rid := range rids {
		if seen[rid] {
			t.Fatalf("gather %q: rid %v matched twice", q, rid)
		}
		seen[rid] = true
	}
	out := make([][]types.Value, len(rows))
	for i, r := range rows {
		out[i] = r[:4]
	}
	return out
}

// randomHistory runs a seeded mix of transactions against the fixture:
// non-key updates, key-changing updates on both indexes, deletes,
// inserts, pad growth that relocates rows off full pages, committed,
// rolled-back and still-open writers. Readers begin at random points
// and stay open, pinning the chains their snapshots need. It returns
// the readers and the writers left open.
func randomHistory(t *testing.T, cat *catalog.Catalog, mgr *mvcc.Manager, rng *rand.Rand, steps int) (readers, open []*mvcc.Txn) {
	t.Helper()
	nextID := 1000000
	stmt := func() string {
		x := 1 + rng.Intn(110)
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("UPDATE t SET val = val + 1 WHERE id = %d", x)
		case 1:
			return fmt.Sprintf("UPDATE t SET id = id + 1000 WHERE id = %d", x)
		case 2:
			return fmt.Sprintf("UPDATE t SET grp = %d WHERE id = %d", rng.Intn(11), x)
		case 3:
			return fmt.Sprintf("UPDATE t SET pad = '%s' WHERE id = %d", strings.Repeat("x", 200+rng.Intn(1500)), x)
		case 4:
			return fmt.Sprintf("DELETE FROM t WHERE id = %d", x)
		case 5:
			nextID++
			return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 'n')", x+rng.Intn(2)*nextID, rng.Intn(11), rng.Intn(1000))
		case 6:
			return fmt.Sprintf("UPDATE t SET val = val + 7 WHERE grp = %d", rng.Intn(11))
		default:
			return fmt.Sprintf("UPDATE t SET id = id - 1000 WHERE id = %d", 1000+x)
		}
	}
	for step := 0; step < steps; step++ {
		if rng.Intn(4) == 0 {
			readers = append(readers, mgr.Begin())
		}
		w := mgr.Begin()
		undo := &catalog.UndoLog{}
		for i := 0; i < 1+rng.Intn(3); i++ {
			_ = tryDML(cat, w, undo, stmt()) // conflicts and violations roll back
		}
		switch r := rng.Intn(10); {
		case r < 7:
			w.Commit()
		case r < 9:
			if err := undo.Rollback(); err != nil {
				t.Fatal(err)
			}
			w.Abort()
		default:
			open = append(open, w)
		}
	}
	return readers, open
}

// TestVersionedProbesMatchSeqScan is the differential check for
// key-addressed version lookup: after a random history, every index
// scan, index-NL join and index gather under every live snapshot —
// old readers, a fresh reader, and the still-open writers reading
// their own writes — returns exactly what a sequential scan plus the
// same filter returns under that snapshot. It then creates an index
// and drops one while the chains are live, and checks again.
func TestVersionedProbesMatchSeqScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cat, mgr := probeFixture(t, 100)
			readers, open := randomHistory(t, cat, mgr, rng, 60)
			tab, err := cat.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if !tab.Vers.HasVersions() {
				t.Fatal("history left no version chains")
			}
			fresh := mgr.Begin()
			snaps := append(append(append([]*mvcc.Txn(nil), readers...), open...), fresh)
			check := func(stage string) {
				for i, tx := range snaps {
					checkProbes(t, cat, tx, rng, fmt.Sprintf("%s snapshot %d", stage, i))
				}
			}
			check("history")

			// CREATE INDEX with live chains: the new index's lookups must
			// find pre-images written before it existed.
			if _, err := cat.CreateIndex("t", "t_val", []string{"val"}, false); err != nil {
				t.Fatal(err)
			}
			checkSecondary := func(stage string) {
				for i, tx := range snaps {
					all := oracleRows(t, cat, tx)
					lo := int64(rng.Intn(1000))
					hi := lo + 200
					q := fmt.Sprintf("SELECT id, val FROM t WHERE val >= %d AND val < %d", lo, hi)
					diffRows(t, fmt.Sprintf("%s, snapshot %d: %s", stage, i, q), collectAs(t, cat, tx, q, "IXSCAN"),
						filterRows(all, func(r []types.Value) bool { return r[2].Int >= lo && r[2].Int < hi }, 0, 2))
					g := int64(rng.Intn(11))
					q = fmt.Sprintf("SELECT id, val FROM t WHERE grp = %d", g)
					diffRows(t, fmt.Sprintf("%s, snapshot %d: %s", stage, i, q), collectAs(t, cat, tx, q, "IXSCAN"),
						filterRows(all, func(r []types.Value) bool { return r[1].Int == g }, 0, 2))
				}
			}
			checkSecondary("after CREATE INDEX")
			// DROP INDEX shifts the remaining indexes' positions.
			if err := cat.DropIndex("t", "t_pk"); err != nil {
				t.Fatal(err)
			}
			checkSecondary("after DROP INDEX")
			if _, err := cat.CreateIndex("t", "t_pk2", []string{"id"}, true); err != nil {
				t.Fatal(err)
			}
			check("after re-creating the primary key")

			for _, tx := range open {
				tx.Abort() // entries stay until undone; readers only
			}
			for _, tx := range readers {
				tx.Abort()
			}
			fresh.Abort()
		})
	}
}

// TestKeyProbeSurvivesGCMidScan is TestVersionedScanSurvivesGCMidScan
// for the key-addressed path: the probe takes its candidates at Open,
// then a finishing transaction's GC collects every chain before the
// drain. Rows whose key changed must come back exactly once, under
// their visible key only.
func TestKeyProbeSurvivesGCMidScan(t *testing.T) {
	cases := []struct {
		name  string
		query string
		label string
		want  []string
	}{
		{"PointProbe", "SELECT id, val FROM t WHERE id = 4", "IXSCAN", []string{"4|40|"}},
		{"NewKeys", "SELECT id FROM t WHERE id >= 100", "IXSCAN", []string{"103|", "105|"}},
		{"OldKeys", "SELECT id FROM t WHERE id < 100", "IXSCAN",
			[]string{"1|", "2|", "4|", "6|", "7|", "8|", "9|", "10|"}},
		{"IndexNLJoin", "SELECT u.k, t.id FROM u JOIN t ON t.id = u.k", "NLJOIN",
			[]string{"1|1|", "4|4|", "7|7|", "10|10|"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, tab, mgr := versionedFixture(t, 10)
			u, err := cat.CreateTable("u", []catalog.Column{{Name: "k", Type: types.IntType}})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int64{1, 3, 4, 5, 7, 10} {
				if _, err := u.InsertRow([]types.Value{types.NewInt(k)}); err != nil {
					t.Fatal(err)
				}
			}
			old := mgr.Begin() // pins the horizon so the chains outlive w
			w := mgr.Begin()
			runDMLAs(t, cat, w, "UPDATE t SET id = id + 100 WHERE id = 3 OR id = 5")
			runDMLAs(t, cat, w, "UPDATE t SET val = val WHERE id = 4")
			w.Commit()
			if !tab.Vers.HasVersions() {
				t.Fatal("expected chains while the old snapshot is live")
			}
			r := mgr.Begin() // sees w's writes
			defer r.Abort()
			n := planQuery(t, cat, tc.query)
			if !hasNode(n, tc.label) {
				t.Fatalf("plan for %q lacks %s", tc.query, tc.label)
			}
			rows := drainAfter(t, n, r, func() {
				old.Abort()
				if tab.Vers.HasVersions() {
					t.Fatal("expected GC to collect every chain")
				}
			})
			got := renderRows(rows)
			sort.Strings(got)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("got %v, want %v", got, want)
			}
		})
	}
}

// TestPointProbeResolvesOnlyItsChains is the gate for key-addressed
// lookup: with 1,000 chained rows, a primary-key point probe under a
// snapshot resolves at most the chains of the key it asks for.
func TestPointProbeResolvesOnlyItsChains(t *testing.T) {
	cat, tab, mgr := versionedFixture(t, 1000)
	old := mgr.Begin()
	defer old.Abort()
	w := mgr.Begin()
	runDMLAs(t, cat, w, "UPDATE t SET val = val + 1")
	w.Commit()
	if got := len(tab.Vers.RIDs()); got != 1000 {
		t.Fatalf("%d chained rows, want 1000", got)
	}
	for _, reader := range []*mvcc.Txn{old, mgr.Begin()} {
		var st Stats
		n := planQuery(t, cat, "SELECT val FROM t WHERE id = 500")
		rows, err := CollectTx(n, nil, &st, reader)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(5000)
		if reader != old {
			want++
		}
		if len(rows) != 1 || rows[0][0].Int != want {
			t.Fatalf("got %v, want val %d", renderRows(rows), want)
		}
		c := st.Snapshot()
		if c.VersionedProbes != 1 {
			t.Errorf("VersionedProbes = %d, want 1", c.VersionedProbes)
		}
		if c.ChainRIDsResolved > 2 {
			t.Errorf("ChainRIDsResolved = %d for a point probe over 1,000 chained rows, want <= 2", c.ChainRIDsResolved)
		}
	}
}
