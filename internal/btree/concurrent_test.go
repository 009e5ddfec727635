package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestConcurrentReadersSerializedWriters runs Get and SeekRange readers,
// which search the pinned frame bytes in place, against writers that
// insert, update and delete keys interleaved with a stable set. Writers
// are serialized among themselves, as the engine's table latches do.
// Every stable key must stay readable with its RID, and every range walk
// must yield strictly increasing keys that include every stable key in
// the range exactly once. Run it under -race.
func TestConcurrentReadersSerializedWriters(t *testing.T) {
	tr, err := New(newPool(512))
	if err != nil {
		t.Fatal(err)
	}
	const stable = 200
	stableKey := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	for i := 0; i < stable; i++ {
		if err := tr.Insert(stableKey(i), storage.RID{Page: storage.PageID(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	var writeMu sync.Mutex
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Churn keys sort between stable keys, so inserts split
				// the leaves the readers are walking.
				k := []byte(fmt.Sprintf("k%04d/%d/%d", r.Intn(stable), w, r.Intn(8)))
				writeMu.Lock()
				switch i % 3 {
				case 0:
					_ = tr.Insert(k, storage.RID{Page: 1})
				case 1:
					_ = tr.Update(k, storage.RID{Page: 2})
				default:
					_ = tr.Delete(k)
				}
				writeMu.Unlock()
			}
		}(w)
	}
	errc := make(chan error, 3)
	for rd := 0; rd < 3; rd++ {
		readers.Add(1)
		go func(rd int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(100 + rd)))
			for n := 0; n < 300; n++ {
				i := r.Intn(stable)
				if rid, err := tr.Get(stableKey(i)); err != nil || rid.Page != storage.PageID(i+1) {
					errc <- fmt.Errorf("get %d = %v, %v", i, rid, err)
					return
				}
				j := i + r.Intn(stable-i)
				if err := walkStable(tr, stableKey(i), stableKey(j), i, j, stableKey); err != nil {
					errc <- err
					return
				}
			}
		}(rd)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// walkStable scans [lo, hi) and checks that keys strictly increase and
// that stable keys i..j-1 each appear once, in order.
func walkStable(tr *BTree, lo, hi []byte, i, j int, stableKey func(int) []byte) error {
	it, err := tr.SeekRange(lo, hi)
	if err != nil {
		return err
	}
	var prev []byte
	next := i
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("walk [%s, %s): %q after %q", lo, hi, k, prev)
		}
		if next < j && bytes.Equal(k, stableKey(next)) {
			next++
		}
		prev = k
	}
	if err := it.Err(); err != nil {
		return err
	}
	if next != j {
		return fmt.Errorf("walk [%s, %s) missed stable key %d", lo, hi, next)
	}
	return nil
}
