package btree

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// benchTree builds a tree of n keys shaped like the engine's
// (tenant, table, row) index keys on 8 KB pages.
func benchTree(tb testing.TB, n int) (*BTree, [][]byte) {
	tb.Helper()
	tr, err := New(storage.NewBufferPool(storage.NewDisk(8192), 64<<20))
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("t%04d/acct/%08d", i%17, i))
		if err := tr.Insert(keys[i], storage.RID{Page: storage.PageID(i + 1), Slot: uint16(i)}); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, keys
}

// TestAllocs pins the allocation cost of the read paths: a point Get
// allocates nothing, and a point SeekRange plus its walk allocates the
// iterator and one copy of the in-range entries.
func TestAllocs(t *testing.T) {
	tr, keys := benchTree(t, 20000)
	k := keys[12345]
	hi := PrefixSuccessor(k)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tr.Get(k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Get allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		it, err := tr.SeekRange(k, hi)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for ; it.Valid(); it.Next() {
			seen++
		}
		if seen != 1 || it.Err() != nil {
			t.Fatalf("point range saw %d keys (%v)", seen, it.Err())
		}
	}); n > 2 {
		t.Errorf("point SeekRange and walk allocate %.1f times, want <= 2", n)
	}
}

func BenchmarkGet(b *testing.B) {
	tr, keys := benchTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(keys[(i*7919)%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeekRangePoint(b *testing.B) {
	tr, keys := benchTree(b, 50000)
	his := make([][]byte, len(keys))
	for i, k := range keys {
		his[i] = PrefixSuccessor(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 7919) % len(keys)
		it, err := tr.SeekRange(keys[j], his[j])
		if err != nil {
			b.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
		}
	}
}

// BenchmarkInsertNoSplit inserts a key into a leaf with room and deletes
// it again, so every iteration takes the in-place path and the tree
// never grows.
func BenchmarkInsertNoSplit(b *testing.B) {
	tr, keys := benchTree(b, 50000)
	extra := make([][]byte, 64)
	for i := range extra {
		extra[i] = append(append([]byte(nil), keys[i*701]...), '+')
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := extra[i%len(extra)]
		if err := tr.Insert(k, storage.RID{Page: 1}); err != nil {
			b.Fatal(err)
		}
		if err := tr.Delete(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tr, keys := benchTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tr.Scan()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		if n != len(keys) {
			b.Fatalf("scan saw %d keys", n)
		}
	}
}
