package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func newPool(pageSize int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewDisk(pageSize), int64(pageSize)*4096)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestInsertGet(t *testing.T) {
	tr, err := New(newPool(512))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1), Slot: uint16(i)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		rid, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if rid.Page != storage.PageID(i+1) || rid.Slot != uint16(i) {
			t.Errorf("get %d = %v", i, rid)
		}
	}
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("missing key: %v", err)
	}
	h, err := tr.Height()
	if err != nil || h < 2 {
		t.Errorf("height %d (%v): expected splits with 512-byte pages", h, err)
	}
}

func TestDuplicateKey(t *testing.T) {
	tr, _ := New(newPool(512))
	if err := tr.Insert([]byte("k"), storage.RID{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), storage.RID{Page: 2}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("want ErrDuplicateKey, got %v", err)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	for i := 0; i < 500; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < 500; i++ {
		_, err := tr.Get(key(i))
		if i%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
			t.Errorf("deleted key %d still present (%v)", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Errorf("surviving key %d: %v", i, err)
		}
	}
	if err := tr.Delete([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("delete missing: %v", err)
	}
	if tr.Len() != 250 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := New(newPool(512))
	tr.Insert([]byte("k"), storage.RID{Page: 1})
	if err := tr.Update([]byte("k"), storage.RID{Page: 99, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	rid, _ := tr.Get([]byte("k"))
	if rid.Page != 99 || rid.Slot != 3 {
		t.Errorf("update lost: %v", rid)
	}
	if err := tr.Update([]byte("zz"), storage.RID{}); !errors.Is(err, ErrKeyNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

func TestScanOrder(t *testing.T) {
	tr, _ := New(newPool(512))
	perm := rand.New(rand.NewSource(1)).Perm(800)
	for _, i := range perm {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	it, err := tr.Scan()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("scan order broken at %d: %q", i, it.Key())
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 800 {
		t.Errorf("scan saw %d entries", i)
	}
}

func TestSeekRange(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)})
	}
	it, err := tr.SeekRange(key(10), key(20))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 10 || got[0] != string(key(10)) || got[9] != string(key(19)) {
		t.Errorf("range [10,20): %v", got)
	}
	// Range starting below the smallest key.
	it, _ = tr.SeekRange([]byte("a"), nil)
	if !it.Valid() || !bytes.Equal(it.Key(), key(0)) {
		t.Error("seek below min should land on first key")
	}
	// Empty range.
	it, _ = tr.SeekRange(key(50), key(50))
	if it.Valid() {
		t.Error("empty range should be done immediately")
	}
}

func TestSeekPrefix(t *testing.T) {
	tr, _ := New(newPool(512))
	for _, k := range []string{"a/1", "a/2", "b/1", "b/2", "b/3", "c/1"} {
		tr.Insert([]byte(k), storage.RID{Page: 1})
	}
	it, err := tr.SeekPrefix([]byte("b/"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		if !bytes.HasPrefix(it.Key(), []byte("b/")) {
			t.Errorf("prefix scan leaked %q", it.Key())
		}
		n++
	}
	if n != 3 {
		t.Errorf("prefix scan saw %d", n)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	if got := PrefixSuccessor([]byte{1, 2}); !bytes.Equal(got, []byte{1, 3}) {
		t.Errorf("PrefixSuccessor: %v", got)
	}
	if got := PrefixSuccessor([]byte{1, 0xFF}); !bytes.Equal(got, []byte{2}) {
		t.Errorf("PrefixSuccessor with trailing FF: %v", got)
	}
	if got := PrefixSuccessor([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("PrefixSuccessor of all-FF: %v", got)
	}
}

func TestScanSkipsEmptyLeaves(t *testing.T) {
	tr, _ := New(newPool(512))
	for i := 0; i < 300; i++ {
		tr.Insert(key(i), storage.RID{Page: 1})
	}
	// Delete a whole contiguous run so at least one leaf empties.
	for i := 50; i < 250; i++ {
		tr.Delete(key(i))
	}
	it, _ := tr.Scan()
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if n != 100 {
		t.Errorf("scan after mass delete saw %d", n)
	}
}

func TestDropFreesPages(t *testing.T) {
	disk := storage.NewDisk(512)
	pool := storage.NewBufferPool(disk, 512*1024)
	tr, _ := New(pool)
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), storage.RID{Page: 1})
	}
	if disk.NumPages() < 2 {
		t.Fatal("expected multi-page tree")
	}
	if err := tr.Drop(); err != nil {
		t.Fatal(err)
	}
	if disk.NumPages() != 0 {
		t.Errorf("drop left %d pages", disk.NumPages())
	}
}

func TestOversizedKey(t *testing.T) {
	tr, _ := New(newPool(256))
	if err := tr.Insert(make([]byte, 300), storage.RID{}); err == nil {
		t.Error("oversized key should be rejected")
	}
}

// TestRandomOpsProperty cross-checks the tree against a sorted-map model
// under random insert/delete/update/lookup/range streams over keys of
// varied length, and checks every in-place leaf change byte for byte
// against the decode/encode reference (see oracle). Runs of deletes
// empty whole leaves, which stay linked (lazy deletion) for the range
// scans to step over.
func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		o, err := newOracle(512)
		if err != nil {
			t.Log(err)
			return false
		}
		universe := varKeys(r, 300)
		for op := 0; op < 800; op++ {
			k := universe[r.Intn(len(universe))]
			rid := storage.RID{Page: storage.PageID(r.Intn(1 << 20)), Slot: uint16(r.Intn(1 << 16))}
			switch c := r.Intn(12); {
			case c < 4:
				err = o.insert(k, rid)
			case c < 6:
				err = o.modify(k, nil)
			case c < 8:
				err = o.modify(k, &rid)
			case c < 9:
				err = o.get(k)
			case c < 11:
				err = o.seek(bound(r, universe), bound(r, universe))
			default:
				// Delete a run of consecutive keys.
				keys := o.sorted()
				if len(keys) == 0 {
					continue
				}
				from := r.Intn(len(keys))
				for _, dk := range keys[from:min(len(keys), from+30)] {
					if err = o.modify([]byte(dk), nil); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		if err := o.checkAll(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLargeTreeSplitCascade(t *testing.T) {
	// Small pages force multi-level splits.
	tr, _ := New(newPool(256))
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	h, _ := tr.Height()
	if h < 3 {
		t.Errorf("expected height >= 3, got %d", h)
	}
	for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
		if _, err := tr.Get(key(i)); err != nil {
			t.Errorf("get %d after cascade: %v", i, err)
		}
	}
}

// TestSeekRangeFetches pins the pages a point range walk reads: the
// descent, the leaf again for the copy, and the next leaf only when
// every entry of the first one lies below hi — a bound that falls
// inside the leaf ends the walk there.
func TestSeekRangeFetches(t *testing.T) {
	pool := newPool(512)
	tr, _ := New(pool)
	for i := 0; i < 600; i++ {
		tr.Insert(key(i), storage.RID{Page: 1})
	}
	h, err := tr.Height()
	if err != nil || h < 2 {
		t.Fatalf("height %d (%v)", h, err)
	}
	reads := func() int64 { return pool.Stats().LogicalReads[storage.CatIndex] }
	leafID, err := tr.descend(nil)
	if err != nil {
		t.Fatal(err)
	}
	for leafID != storage.InvalidPageID {
		buf, err := pool.Fetch(leafID, storage.CatIndex)
		if err != nil {
			t.Fatal(err)
		}
		ln := decodeLeaf(buf)
		pool.Unpin(leafID, false)
		for e, k := range ln.keys {
			want := int64(h + 1)
			if e == len(ln.keys)-1 && ln.next != storage.InvalidPageID {
				want++
			}
			before := reads()
			it, err := tr.SeekRange(k, PrefixSuccessor(k))
			if err != nil {
				t.Fatal(err)
			}
			for ; it.Valid(); it.Next() {
			}
			if got := reads() - before; got != want {
				t.Fatalf("point range on %q (entry %d of %d) read %d index pages, want %d", k, e, len(ln.keys), got, want)
			}
		}
		leafID = ln.next
	}
}
