package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/mvcc"
	"repro/internal/storage"
	"repro/internal/types"
)

// newTxnDB builds a db with one indexed accounts-style table:
// k = 0..n-1 dense unique, v = "val-<k>", bal = 100 each.
func newTxnDB(t *testing.T, cfg Config, n int) *DB {
	t.Helper()
	db := Open(cfg)
	mustExec(t, db, "CREATE TABLE acct (k INTEGER NOT NULL, v VARCHAR(100), bal INTEGER)")
	mustExec(t, db, "CREATE UNIQUE INDEX acct_pk ON acct (k)")
	for i := 0; i < n; i++ {
		mustExec(t, db, "INSERT INTO acct VALUES (?, ?, 100)",
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("val-%04d", i)))
	}
	return db
}

func sessExec(t *testing.T, s *Session, q string, params ...types.Value) Result {
	t.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		t.Fatalf("session Exec(%q): %v", q, err)
	}
	return res
}

func sessQuery(t *testing.T, s *Session, q string, params ...types.Value) *Rows {
	t.Helper()
	rows, err := s.Query(q, params...)
	if err != nil {
		t.Fatalf("session Query(%q): %v", q, err)
	}
	return rows
}

// oneInt runs a single-row single-column query and returns the value.
func oneInt(t *testing.T, s *Session, q string, params ...types.Value) int64 {
	t.Helper()
	rows := sessQuery(t, s, q, params...)
	if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
		t.Fatalf("Query(%q): want 1x1 result, got %dx?", q, len(rows.Data))
	}
	return rows.Data[0][0].Int
}

func TestTxnCommitMakesWritesVisibleAtomically(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "INSERT INTO acct VALUES (100, 'new', 1)")
	sessExec(t, s1, "UPDATE acct SET bal = 55 WHERE k = 0")

	// Uncommitted writes are invisible to another session (autocommit
	// read and in-transaction read alike).
	if got := oneInt(t, s2, "SELECT COUNT(*) FROM acct"); got != 4 {
		t.Errorf("other session sees %d rows before commit, want 4", got)
	}
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 0"); got != 100 {
		t.Errorf("other session sees bal=%d before commit, want 100", got)
	}
	// ...but visible to the writer itself.
	if got := oneInt(t, s1, "SELECT COUNT(*) FROM acct"); got != 5 {
		t.Errorf("writer sees %d rows, want 5", got)
	}
	if got := oneInt(t, s1, "SELECT bal FROM acct WHERE k = 0"); got != 55 {
		t.Errorf("writer sees bal=%d, want 55", got)
	}

	before := db.Stats()
	sessExec(t, s1, "COMMIT")
	after := db.Stats()
	if after.TxnCommits != before.TxnCommits+1 {
		t.Errorf("TxnCommits %d -> %d, want +1", before.TxnCommits, after.TxnCommits)
	}

	if got := oneInt(t, s2, "SELECT COUNT(*) FROM acct"); got != 5 {
		t.Errorf("after commit other session sees %d rows, want 5", got)
	}
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 0"); got != 55 {
		t.Errorf("after commit other session sees bal=%d, want 55", got)
	}
}

func TestTxnRollbackUndoesEverything(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	s := db.Session()
	defer s.Close()
	tab := atomTable2(t, db)
	snap, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}

	sessExec(t, s, "BEGIN")
	sessExec(t, s, "INSERT INTO acct VALUES (100, 'new', 1)")
	sessExec(t, s, "UPDATE acct SET bal = bal + 7 WHERE k >= 1")
	sessExec(t, s, "DELETE FROM acct WHERE k = 0")
	sessExec(t, s, "ROLLBACK")

	after, err := tab.SnapshotRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(snap) {
		t.Fatalf("row count after rollback = %d, want %d", len(after), len(snap))
	}
	if got := oneInt(t, s, "SELECT SUM(bal) FROM acct"); got != 400 {
		t.Errorf("SUM(bal) after rollback = %d, want 400", got)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Errorf("invariants after rollback: %v", err)
	}
	if s.InTxn() {
		t.Error("session still in a transaction after ROLLBACK")
	}
}

// No dirty read: a reader never observes another transaction's
// uncommitted writes, whichever access path serves the read.
func TestTxnNoDirtyRead(t *testing.T) {
	db := newTxnDB(t, Config{}, 8)
	w, r := db.Session(), db.Session()
	defer w.Close()
	defer r.Close()

	sessExec(t, r, "BEGIN") // reader's snapshot predates the writes
	sessExec(t, w, "BEGIN")
	sessExec(t, w, "UPDATE acct SET bal = 0, v = 'dirty' WHERE k = 3")
	sessExec(t, w, "DELETE FROM acct WHERE k = 4")
	sessExec(t, w, "INSERT INTO acct VALUES (200, 'phantom', 9)")

	// Sequential-scan shaped read.
	if got := oneInt(t, r, "SELECT SUM(bal) FROM acct"); got != 800 {
		t.Errorf("in-txn reader: SUM(bal) = %d, want 800", got)
	}
	// Index-range shaped read over the updated and deleted keys.
	if got := oneInt(t, r, "SELECT COUNT(*) FROM acct WHERE k >= 3 AND k <= 4"); got != 2 {
		t.Errorf("in-txn reader: rows in [3,4] = %d, want 2", got)
	}
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 3"); got != 100 {
		t.Errorf("in-txn reader: bal(3) = %d, want 100", got)
	}
	// Autocommit readers must not see them either.
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM acct")
	if rows.Data[0][0].Int != 8 {
		t.Errorf("autocommit reader: %d rows, want 8", rows.Data[0][0].Int)
	}
	sessExec(t, w, "ROLLBACK")
}

// Repeatable reads: a snapshot keeps returning the values it first saw
// even after other transactions commit changes (including deletes —
// no ghost disappearance mid-transaction).
func TestTxnRepeatableReadAndNoGhosts(t *testing.T) {
	db := newTxnDB(t, Config{}, 8)
	r := db.Session()
	defer r.Close()

	sessExec(t, r, "BEGIN")
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 2"); got != 100 {
		t.Fatalf("first read: bal(2) = %d, want 100", got)
	}

	// Committed autocommit writes from elsewhere.
	mustExec(t, db, "UPDATE acct SET bal = 1 WHERE k = 2")
	mustExec(t, db, "DELETE FROM acct WHERE k = 5")
	mustExec(t, db, "INSERT INTO acct VALUES (300, 'late', 3)")

	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 2"); got != 100 {
		t.Errorf("re-read: bal(2) = %d, want 100 (non-repeatable read)", got)
	}
	if got := oneInt(t, r, "SELECT COUNT(*) FROM acct WHERE k = 5"); got != 1 {
		t.Errorf("re-read: deleted row vanished from the snapshot")
	}
	if got := oneInt(t, r, "SELECT COUNT(*) FROM acct"); got != 8 {
		t.Errorf("re-read: COUNT(*) = %d, want 8 (phantom visible)", got)
	}
	sessExec(t, r, "COMMIT")

	// A fresh statement sees the new reality.
	if got := oneInt(t, r, "SELECT COUNT(*) FROM acct"); got != 8 {
		t.Errorf("after commit: COUNT(*) = %d, want 8 (one delete, one insert)", got)
	}
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 2"); got != 1 {
		t.Errorf("after commit: bal(2) = %d, want 1", got)
	}
}

// First-updater-wins, uncommitted case: the second writer of a row
// conflicts while the first is still active, and its whole transaction
// rolls back.
func TestTxnWriteWriteConflictSecondAborts(t *testing.T) {
	db := newTxnDB(t, Config{}, 8)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s1, "BEGIN")
	sessExec(t, s2, "BEGIN")
	sessExec(t, s2, "UPDATE acct SET bal = bal - 1 WHERE k = 7") // s2's keeper write
	sessExec(t, s1, "UPDATE acct SET bal = 10 WHERE k = 1")

	before := db.Stats()
	_, err := s2.Exec("UPDATE acct SET bal = 20 WHERE k = 1")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("second writer: want ErrWriteConflict, got %v", err)
	}
	st := db.Stats()
	if st.TxnConflicts != before.TxnConflicts+1 || st.TxnAborts != before.TxnAborts+1 {
		t.Errorf("conflict/abort counters: conflicts %d->%d aborts %d->%d, want both +1",
			before.TxnConflicts, st.TxnConflicts, before.TxnAborts, st.TxnAborts)
	}

	// The conflicted transaction is dead: statements fail until the
	// session acknowledges with ROLLBACK (or a COMMIT that reports it).
	if _, err := s2.Exec("SELECT COUNT(*) FROM acct"); !errors.Is(err, ErrTxnAborted) {
		t.Errorf("statement in aborted txn: want ErrTxnAborted, got %v", err)
	}
	if _, err := s2.Exec("COMMIT"); !errors.Is(err, ErrTxnAborted) {
		t.Errorf("COMMIT of aborted txn: want ErrTxnAborted, got %v", err)
	}
	// COMMIT cleared the state; the session is usable again.
	if s2.InTxn() {
		t.Error("session still in txn after acknowledging the abort")
	}

	// s2's own earlier write was rolled back with the transaction; s1's
	// write survives and commits.
	sessExec(t, s1, "COMMIT")
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 7"); got != 100 {
		t.Errorf("loser's earlier write leaked: bal(7) = %d, want 100", got)
	}
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 1"); got != 10 {
		t.Errorf("winner's write lost: bal(1) = %d, want 10", got)
	}
}

// First-updater-wins, committed case: the first writer already
// committed, but after the second's snapshot — still a conflict (no
// lost update).
func TestTxnWriteWriteConflictAfterCommit(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s2, "BEGIN") // snapshot taken before s1's commit
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 1"); got != 100 {
		t.Fatal("setup read failed")
	}
	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "UPDATE acct SET bal = 10 WHERE k = 1")
	sessExec(t, s1, "COMMIT")

	_, err := s2.Exec("UPDATE acct SET bal = bal + 1 WHERE k = 1")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("update over a newer committed version: want ErrWriteConflict, got %v", err)
	}
	sessExec(t, s2, "ROLLBACK") // acknowledge
	if got := oneInt(t, s2, "SELECT bal FROM acct WHERE k = 1"); got != 10 {
		t.Errorf("bal(1) = %d, want 10 (first updater's value)", got)
	}
}

// Write skew is PERMITTED under snapshot isolation: two transactions
// read an overlapping set and write disjoint rows; both commit. This
// test documents the anomaly as expected engine behavior (the paper's
// target workloads are single-tenant row operations where SI suffices;
// serializable isolation is out of scope).
func TestTxnWriteSkewPermitted(t *testing.T) {
	db := newTxnDB(t, Config{}, 2) // k=0 and k=1, bal 100 each
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	// Invariant both txns believe they preserve: bal(0)+bal(1) >= 100.
	sessExec(t, s1, "BEGIN")
	sessExec(t, s2, "BEGIN")
	if got := oneInt(t, s1, "SELECT SUM(bal) FROM acct"); got != 200 {
		t.Fatal("setup")
	}
	if got := oneInt(t, s2, "SELECT SUM(bal) FROM acct"); got != 200 {
		t.Fatal("setup")
	}
	sessExec(t, s1, "UPDATE acct SET bal = 0 WHERE k = 0") // disjoint writes:
	sessExec(t, s2, "UPDATE acct SET bal = 0 WHERE k = 1") // no FUW conflict
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatalf("s1 COMMIT: %v", err)
	}
	if _, err := s2.Exec("COMMIT"); err != nil {
		t.Fatalf("s2 COMMIT under write skew: %v (SI must permit this)", err)
	}
	if got := oneInt(t, s1, "SELECT SUM(bal) FROM acct"); got != 0 {
		t.Errorf("SUM(bal) = %d, want 0 (both skewed writes applied)", got)
	}
}

func TestTxnSavepointPartialRollback(t *testing.T) {
	db := newTxnDB(t, Config{}, 2)
	s := db.Session()
	defer s.Close()

	sessExec(t, s, "BEGIN")
	sessExec(t, s, "INSERT INTO acct VALUES (10, 'a', 1)")
	sessExec(t, s, "SAVEPOINT sp1")
	sessExec(t, s, "INSERT INTO acct VALUES (11, 'b', 2)")
	sessExec(t, s, "SAVEPOINT sp2")
	sessExec(t, s, "INSERT INTO acct VALUES (12, 'c', 3)")
	sessExec(t, s, "UPDATE acct SET bal = 0 WHERE k = 0")

	// Roll back to sp1: undoes rows 11, 12 and the update; row 10 stays.
	sessExec(t, s, "ROLLBACK TO sp1")
	if got := oneInt(t, s, "SELECT COUNT(*) FROM acct WHERE k >= 10"); got != 1 {
		t.Errorf("rows >= 10 after ROLLBACK TO sp1: %d, want 1", got)
	}
	if got := oneInt(t, s, "SELECT bal FROM acct WHERE k = 0"); got != 100 {
		t.Errorf("bal(0) = %d, want 100 (update past sp1 must be undone)", got)
	}
	// sp2 was destroyed by the rollback; sp1 survives and is reusable.
	if _, err := s.Exec("ROLLBACK TO sp2"); !errors.Is(err, ErrNoSavepoint) {
		t.Errorf("ROLLBACK TO destroyed savepoint: want ErrNoSavepoint, got %v", err)
	}
	sessExec(t, s, "INSERT INTO acct VALUES (13, 'd', 4)")
	sessExec(t, s, "ROLLBACK TO sp1")
	if got := oneInt(t, s, "SELECT COUNT(*) FROM acct WHERE k >= 10"); got != 1 {
		t.Errorf("rows >= 10 after second ROLLBACK TO sp1: %d, want 1", got)
	}

	sessExec(t, s, "INSERT INTO acct VALUES (14, 'e', 5)")
	sessExec(t, s, "COMMIT")
	// Committed state: the pre-savepoint row and the post-rollback row.
	if got := oneInt(t, s, "SELECT COUNT(*) FROM acct WHERE k >= 10"); got != 2 {
		t.Errorf("committed rows >= 10: %d, want 2 (k=10 and k=14)", got)
	}
	if err := atomTable2(t, db).CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// Index scans under versioning: a transaction that changes indexed keys
// sees its own new keys through the index, while a concurrent snapshot
// and autocommit readers keep seeing the old keys — even though the
// index entries themselves already moved.
func TestTxnIndexScanSeesSnapshotKeys(t *testing.T) {
	db := newTxnDB(t, Config{}, 5)
	w := db.Session()
	defer w.Close()

	sessExec(t, w, "BEGIN")
	// Key-change update through the unique index: rows 0..2 -> 1000..1002.
	sessExec(t, w, "UPDATE acct SET k = k + 1000 WHERE k >= 0 AND k < 3")

	// Writer, via an index-range predicate, sees the new keys only.
	if got := oneInt(t, w, "SELECT COUNT(*) FROM acct WHERE k >= 1000"); got != 3 {
		t.Errorf("writer: rows with k>=1000 = %d, want 3", got)
	}
	if got := oneInt(t, w, "SELECT COUNT(*) FROM acct WHERE k >= 0 AND k < 100"); got != 2 {
		t.Errorf("writer: rows with old small keys = %d, want 2", got)
	}
	// Autocommit reader (ephemeral snapshot) sees only the old keys.
	rows := mustQuery(t, db, "SELECT COUNT(*) FROM acct WHERE k >= 1000")
	if rows.Data[0][0].Int != 0 {
		t.Errorf("autocommit reader: rows with k>=1000 = %d, want 0", rows.Data[0][0].Int)
	}
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM acct WHERE k >= 0 AND k < 100")
	if rows.Data[0][0].Int != 5 {
		t.Errorf("autocommit reader: old-key rows = %d, want 5", rows.Data[0][0].Int)
	}
	// Point lookup of a moved row still resolves through the snapshot.
	rows = mustQuery(t, db, "SELECT v FROM acct WHERE k = 2")
	if len(rows.Data) != 1 || rows.Data[0][0].Str != "val-0002" {
		t.Errorf("autocommit point read of moved key: %v", rows.Data)
	}

	sessExec(t, w, "COMMIT")
	rows = mustQuery(t, db, "SELECT COUNT(*) FROM acct WHERE k >= 1000")
	if rows.Data[0][0].Int != 3 {
		t.Errorf("after commit: rows with k>=1000 = %d, want 3", rows.Data[0][0].Int)
	}
	if err := atomTable2(t, db).CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// Unique-key checks classify their failures: a key held by another
// transaction's uncommitted insert (or masked by its uncommitted
// delete) is a write-write conflict, not a constraint violation; a key
// held by committed data is a genuine violation that only fails the
// statement, not the transaction.
func TestTxnUniqueConflictClassification(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	s1, s2 := db.Session(), db.Session()
	defer s1.Close()
	defer s2.Close()

	// Case 1: uncommitted insert holds k=50.
	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "INSERT INTO acct VALUES (50, 'held', 1)")
	sessExec(t, s2, "BEGIN")
	_, err := s2.Exec("INSERT INTO acct VALUES (50, 'contender', 2)")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("insert into uncommitted-held key: want ErrWriteConflict, got %v", err)
	}
	sessExec(t, s2, "ROLLBACK")
	sessExec(t, s1, "ROLLBACK")

	// Case 2: uncommitted delete shadows k=2; reinserting the key from
	// another transaction must conflict, not succeed or report a dup.
	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "DELETE FROM acct WHERE k = 2")
	sessExec(t, s2, "BEGIN")
	_, err = s2.Exec("INSERT INTO acct VALUES (2, 'reuse', 2)")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("insert over uncommitted delete: want ErrWriteConflict, got %v", err)
	}
	sessExec(t, s2, "ROLLBACK")
	sessExec(t, s1, "ROLLBACK")

	// Case 3: committed data holds k=3 — a genuine unique violation.
	// The statement fails and rolls back, but the transaction survives.
	sessExec(t, s2, "BEGIN")
	_, err = s2.Exec("INSERT INTO acct VALUES (3, 'dup', 2)")
	if err == nil || errors.Is(err, mvcc.ErrWriteConflict) {
		t.Fatalf("insert of committed dup key: want a unique violation, got %v", err)
	}
	if !strings.Contains(err.Error(), "unique") {
		t.Errorf("violation error should mention uniqueness: %v", err)
	}
	// Transaction still usable.
	sessExec(t, s2, "INSERT INTO acct VALUES (60, 'ok', 2)")
	sessExec(t, s2, "COMMIT")
	if got := oneInt(t, s2, "SELECT COUNT(*) FROM acct WHERE k = 60"); got != 1 {
		t.Error("transaction did not survive the statement-level violation")
	}
}

// DDL is fenced off from open transactions, in both directions.
func TestTxnDDLGate(t *testing.T) {
	db := newTxnDB(t, Config{}, 2)
	s := db.Session()
	defer s.Close()

	sessExec(t, s, "BEGIN")
	// DDL inside the transaction is rejected by the session.
	if _, err := s.Exec("CREATE TABLE other (x INTEGER)"); err == nil {
		t.Error("DDL inside a transaction must fail")
	}
	// Engine-level DDL while any transaction is open is rejected too.
	if _, err := db.Exec("CREATE TABLE other (x INTEGER)"); err == nil {
		t.Error("DDL with an open transaction elsewhere must fail")
	}
	sessExec(t, s, "COMMIT")
	mustExec(t, db, "CREATE TABLE other (x INTEGER)") // now fine
}

// Transaction-control statements need a Session; the autocommit DB
// surface rejects them rather than silently ignoring them.
func TestTxnControlRequiresSession(t *testing.T) {
	db := newTxnDB(t, Config{}, 1)
	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT sp"} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("DB.Exec(%q) must fail (needs a Session)", q)
		}
	}

	s := db.Session()
	defer s.Close()
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrNoTxn) {
		t.Errorf("COMMIT outside txn: want ErrNoTxn, got %v", err)
	}
	if _, err := s.Exec("ROLLBACK"); !errors.Is(err, ErrNoTxn) {
		t.Errorf("ROLLBACK outside txn: want ErrNoTxn, got %v", err)
	}
	if _, err := s.Exec("SAVEPOINT sp"); !errors.Is(err, ErrNoTxn) {
		t.Errorf("SAVEPOINT outside txn: want ErrNoTxn, got %v", err)
	}
	sessExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrTxnOpen) {
		t.Errorf("nested BEGIN: want ErrTxnOpen, got %v", err)
	}
	sessExec(t, s, "ROLLBACK")
}

// Closing a session with an open transaction rolls it back.
func TestTxnSessionCloseRollsBack(t *testing.T) {
	db := newTxnDB(t, Config{}, 2)
	s := db.Session()
	sessExec(t, s, "BEGIN")
	sessExec(t, s, "UPDATE acct SET bal = 0 WHERE k = 0")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rows := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0")
	if rows.Data[0][0].Int != 100 {
		t.Errorf("bal(0) = %d after Close, want 100 (rolled back)", rows.Data[0][0].Int)
	}
}

// A read-only transaction never writes the WAL and commits cleanly.
func TestTxnReadOnly(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	s := db.Session()
	defer s.Close()
	sessExec(t, s, "BEGIN")
	if got := oneInt(t, s, "SELECT COUNT(*) FROM acct"); got != 4 {
		t.Errorf("COUNT = %d, want 4", got)
	}
	res, err := s.Exec("COMMIT")
	if err != nil {
		t.Fatalf("read-only COMMIT: %v", err)
	}
	if res.StmtID != 0 {
		t.Errorf("read-only commit has WAL identity %d, want 0 (no scope begun)", res.StmtID)
	}
}

// Autocommit writers interoperate with open snapshots: their writes go
// through ephemeral transactions (versioned) so open snapshots are not
// corrupted, and they are immediately durable and visible to new reads.
func TestTxnAutocommitInterop(t *testing.T) {
	db := newTxnDB(t, Config{}, 4)
	r := db.Session()
	defer r.Close()

	sessExec(t, r, "BEGIN")
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 1"); got != 100 {
		t.Fatal("setup")
	}
	// Autocommit write while the snapshot is open.
	mustExec(t, db, "UPDATE acct SET bal = 77 WHERE k = 1")
	// The snapshot still sees the old value; the world sees the new one.
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 1"); got != 100 {
		t.Errorf("snapshot read after autocommit write: %d, want 100", got)
	}
	rows := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 1")
	if rows.Data[0][0].Int != 77 {
		t.Errorf("autocommit read: %d, want 77", rows.Data[0][0].Int)
	}
	// The open snapshot now conflicts if it writes the same row.
	_, err := r.Exec("UPDATE acct SET bal = 1 WHERE k = 1")
	if !errors.Is(err, mvcc.ErrWriteConflict) {
		t.Errorf("snapshot writing over autocommit write: want ErrWriteConflict, got %v", err)
	}
	sessExec(t, r, "ROLLBACK")
}

// Prepared statements execute inside the session's transaction when run
// through Session.ExecStmt.
func TestTxnPreparedThroughSession(t *testing.T) {
	db := newTxnDB(t, Config{}, 2)
	st, err := db.Prepare("UPDATE acct SET bal = ? WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	// Prepared DML on the DB handle autocommits even while another
	// session holds a snapshot. The snapshot is pinned lazily at the
	// session's first statement, so read something before the prepared
	// write lands.
	r := db.Session()
	defer r.Close()
	sessExec(t, r, "BEGIN")
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 1"); got != 100 {
		t.Fatalf("pinning read: bal(1)=%d, want 100", got)
	}
	if _, err := st.Exec(types.NewInt(5), types.NewInt(0)); err != nil {
		t.Fatalf("prepared autocommit exec: %v", err)
	}
	if got := oneInt(t, r, "SELECT bal FROM acct WHERE k = 0"); got != 100 {
		t.Errorf("snapshot sees prepared write: bal=%d, want 100", got)
	}
	sessExec(t, r, "ROLLBACK")
	rows := mustQuery(t, db, "SELECT bal FROM acct WHERE k = 0")
	if rows.Data[0][0].Int != 5 {
		t.Errorf("prepared write lost: bal=%d, want 5", rows.Data[0][0].Int)
	}
	// Transaction control cannot be prepared.
	if _, err := db.Prepare("BEGIN"); err == nil {
		t.Error("Prepare(BEGIN) must fail")
	}
}

func atomTable2(t *testing.T, db *DB) *catalog.Table {
	t.Helper()
	tab, err := db.Catalog().Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// --- rollback accounting under undo failure (the satellite regression) -------

// TestStmtRollbackFailureAccounting sweeps a double-fault over a
// multi-row statement: logical page access k fails (failing the
// statement), and access k+1 — the first page the undo replay touches —
// fails too. Such a statement must land in StmtRollbackFailures, not
// StmtRollbacks, carry a RollbackFailedError with an exact failed-step
// count, and still have attempted every remaining undo step.
func TestStmtRollbackFailureAccounting(t *testing.T) {
	const maxK = 400
	sawFailure := false
	for k := int64(1); k <= maxK; k++ {
		db := newTxnDB(t, Config{PageSize: 512, MemoryBytes: 1 << 20}, 30)
		before := db.Stats()

		var n atomic.Int64
		db.BufferPool().SetFetchFault(func(_ storage.PageID, _ storage.Category) error {
			c := n.Add(1)
			if c == k || c == k+1 {
				return storage.ErrInjectedFault
			}
			return nil
		})
		_, execErr := db.Exec("UPDATE acct SET k = k + 1 WHERE k >= 5")
		db.BufferPool().SetFetchFault(nil)

		if execErr == nil {
			break // statement outran the fault: every access point swept
		}
		if !errors.Is(execErr, storage.ErrInjectedFault) {
			t.Fatalf("fault %d: unexpected error %v", k, execErr)
		}
		st := db.Stats()
		var rf *exec.RollbackFailedError
		if errors.As(execErr, &rf) {
			sawFailure = true
			if rf.Failed < 1 {
				t.Fatalf("fault %d: RollbackFailedError.Failed = %d, want >= 1", k, rf.Failed)
			}
			if d := st.StmtRollbackFailures - before.StmtRollbackFailures; d != 1 {
				t.Fatalf("fault %d: StmtRollbackFailures delta = %d, want 1", k, d)
			}
			if d := st.StmtRollbacks - before.StmtRollbacks; d != 0 {
				t.Fatalf("fault %d: StmtRollbacks delta = %d, want 0 (failed rollback is not clean)", k, d)
			}
		} else {
			// The second fault landed before any undo step (or there was
			// nothing to undo): a clean statement rollback.
			if d := st.StmtRollbacks - before.StmtRollbacks; d != 1 {
				t.Fatalf("fault %d: StmtRollbacks delta = %d, want 1", k, d)
			}
			if d := st.StmtRollbackFailures - before.StmtRollbackFailures; d != 0 {
				t.Fatalf("fault %d: StmtRollbackFailures delta = %d, want 0", k, d)
			}
		}
	}
	if !sawFailure {
		t.Fatal("sweep never produced a failed undo step; the regression is untested")
	}
}

// TestStmtRollbackFailureAllStepsAttempted proves RollbackTo does not
// stop at the first failed undo action: with every page access failing
// from the trigger point on, the failed count equals the number of
// logged undo steps still pending, not 1.
func TestStmtRollbackFailureAllStepsAttempted(t *testing.T) {
	db := newTxnDB(t, Config{PageSize: 512, MemoryBytes: 1 << 20}, 30)

	// Let the statement make real progress (several rows updated, each
	// logging heap + index undo steps), then fail every access.
	const allow = 120
	var n atomic.Int64
	db.BufferPool().SetFetchFault(func(_ storage.PageID, _ storage.Category) error {
		if n.Add(1) > allow {
			return storage.ErrInjectedFault
		}
		return nil
	})
	_, execErr := db.Exec("UPDATE acct SET k = k + 1 WHERE k >= 5")
	db.BufferPool().SetFetchFault(nil)

	if execErr == nil {
		t.Skip("statement completed within the access allowance; nothing to fail")
	}
	var rf *exec.RollbackFailedError
	if !errors.As(execErr, &rf) {
		// All progress happened before access #allow ran out mid-gather:
		// nothing was logged, so the rollback was trivially clean.
		t.Skipf("no undo steps pending at the failure point: %v", execErr)
	}
	if rf.Failed < 2 {
		t.Errorf("Failed = %d, want >= 2 (every pending undo step attempted and counted)", rf.Failed)
	}
	if rf.Table != "acct" {
		t.Errorf("Table = %q, want acct", rf.Table)
	}
	if !errors.Is(execErr, storage.ErrInjectedFault) {
		t.Errorf("cause not preserved through RollbackFailedError: %v", execErr)
	}
	if db.Stats().StmtRollbackFailures != 1 {
		t.Errorf("StmtRollbackFailures = %d, want 1", db.Stats().StmtRollbackFailures)
	}
}

// TestVersionedPointProbeCounters checks the key-addressed version
// lookup through the session path and its counters in Stats.Exec:
// with 1,000 rows chained by a committed update that an older snapshot
// still needs, a primary-key point read — and a by-key UPDATE's gather
// — resolves at most the probed key's chains, not all 1,000.
func TestVersionedPointProbeCounters(t *testing.T) {
	db := newTxnDB(t, Config{}, 1000)
	old := db.Session()
	defer old.Close()
	sessExec(t, old, "BEGIN")
	sessQuery(t, old, "SELECT bal FROM acct WHERE k = 1") // pins the snapshot
	w := db.Session()
	defer w.Close()
	sessExec(t, w, "BEGIN")
	sessExec(t, w, "UPDATE acct SET bal = bal + 1")
	sessExec(t, w, "COMMIT")

	r := db.Session()
	defer r.Close()
	sessExec(t, r, "BEGIN")
	before := db.Stats().Exec
	rows := sessQuery(t, r, "SELECT bal FROM acct WHERE k = 500")
	sessExec(t, r, "UPDATE acct SET bal = 0 WHERE k = 501")
	after := db.Stats().Exec
	if len(rows.Data) != 1 || rows.Data[0][0].Int != 101 {
		t.Fatalf("point read under the new snapshot: %v, want bal 101", rows.Data)
	}
	probes := after.VersionedProbes - before.VersionedProbes
	resolved := after.ChainRIDsResolved - before.ChainRIDsResolved
	if probes != 2 {
		t.Errorf("VersionedProbes delta = %d, want 2 (one read, one gather)", probes)
	}
	if resolved > 2*2 {
		t.Errorf("ChainRIDsResolved delta = %d over %d probes of 1,000 chained rows, want <= 2 per probe", resolved, probes)
	}
	sessExec(t, r, "COMMIT")
	if got := sessQuery(t, old, "SELECT bal FROM acct WHERE k = 500"); got.Data[0][0].Int != 100 {
		t.Errorf("old snapshot reads bal %v, want the pre-image 100", got.Data)
	}
}
