package mvcc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
)

// testKeyer keys a test pre-image: index i takes byte cols[i] of the
// pre-image as its key; non-unique indexes (odd positions) append the
// RID like catalog keys do. A pre-image starting with 0xFF does not
// key, standing in for bytes that do not decode.
type testKeyer struct{ cols []int }

func (k *testKeyer) keys(rid storage.RID, pre []byte) ([][]byte, bool) {
	if len(pre) > 0 && pre[0] == 0xFF {
		return nil, false
	}
	out := make([][]byte, len(k.cols))
	for i, c := range k.cols {
		key := []byte{pre[c]}
		if i%2 == 1 {
			key = append(key, byte(rid.Page), byte(rid.Slot>>8), byte(rid.Slot))
		}
		out[i] = key
	}
	return out, true
}

// bruteKeyRIDs is the oracle for PreKeyRIDs: key every live pre-image
// afresh and keep the RIDs whose key under index ix is in [lo, hi),
// plus every RID with a pre-image that does not key.
func bruteKeyRIDs(s *VersionStore, k *testKeyer, ix int, lo, hi []byte) map[storage.RID]bool {
	out := map[storage.RID]bool{}
	for rid, ch := range s.chains {
		for _, e := range ch {
			if e.pre == nil {
				continue
			}
			keys, ok := k.keys(rid, e.pre)
			if !ok {
				out[rid] = true
				continue
			}
			key := keys[ix]
			if (lo == nil || bytes.Compare(key, lo) >= 0) && (hi == nil || bytes.Compare(key, hi) < 0) {
				out[rid] = true
			}
		}
	}
	return out
}

// bruteShadowed is the oracle for ShadowedKey.
func bruteShadowed(s *VersionStore, k *testKeyer, tx *Txn, ix int, key []byte) bool {
	for rid, ch := range s.chains {
		for _, e := range ch {
			if e.pre == nil || e.writer == tx || e.writer.Committed() {
				continue
			}
			keys, ok := k.keys(rid, e.pre)
			if !ok || bytes.Equal(keys[ix], key) {
				return true
			}
		}
	}
	return false
}

// checkKeyIndex verifies a keyIndex's shape: bounded non-empty chunks,
// strictly increasing (key, RID) items, positive counts.
func checkKeyIndex(t *testing.T, x *keyIndex) {
	t.Helper()
	var prev *keyItem
	for _, ch := range x.chunks {
		if len(ch) == 0 || len(ch) > keyChunkMax {
			t.Fatalf("chunk of %d items (max %d)", len(ch), keyChunkMax)
		}
		for i := range ch {
			it := &ch[i]
			if it.n <= 0 {
				t.Fatalf("item %x/%v has count %d", it.key, it.rid, it.n)
			}
			if prev != nil && compareItem(prev.key, prev.rid, it) >= 0 {
				t.Fatalf("items out of order: %x/%v then %x/%v", prev.key, prev.rid, it.key, it.rid)
			}
			prev = it
		}
	}
}

// TestKeyLookupOracle drives a store through random RecordWrite,
// PopWrite, commit/abort, GC and re-key sequences and checks, after
// every step, that the key-range lookup and the shadowed-key check
// agree with a brute-force keying of every live pre-image.
func TestKeyLookupOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mgr := NewManager()
			k := &testKeyer{cols: []int{0, 1}}
			s := NewStore(nil, k.keys)

			nrid := 50 + rng.Intn(400)
			rids := make([]storage.RID, nrid)
			for i := range rids {
				rids[i] = storage.RID{Page: storage.PageID(1 + i/64), Slot: uint16(i % 64)}
			}
			var active []*Txn
			pre := func() []byte {
				switch r := rng.Intn(20); {
				case r < 4:
					return nil
				case r == 4:
					return []byte{0xFF, 0, 0}
				}
				return []byte{byte(rng.Intn(16)), byte(rng.Intn(16)), byte(rng.Intn(16))}
			}
			randKey := func() []byte {
				if rng.Intn(5) == 0 {
					return nil
				}
				return []byte{byte(rng.Intn(17))}
			}

			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 45:
					if len(active) == 0 || rng.Intn(8) == 0 {
						active = append(active, mgr.Begin())
					}
					tx := active[rng.Intn(len(active))]
					s.RecordWrite(tx, rids[rng.Intn(nrid)], pre())
				case op < 60:
					rid := rids[rng.Intn(nrid)]
					if w, ok := s.NewestWriter(rid); ok {
						s.PopWrite(w, rid)
					} else if len(active) > 0 {
						s.PopWrite(active[0], rid) // no chain: a no-op
					}
				case op < 75 && len(active) > 0:
					i := rng.Intn(len(active))
					if rng.Intn(3) == 0 {
						active[i].Abort()
					} else {
						active[i].Commit()
					}
					active = append(active[:i], active[i+1:]...)
				case op < 90:
					h := mgr.Horizon()
					if rng.Intn(3) == 0 && h > 0 {
						h = uint64(rng.Int63n(int64(h) + 1))
					}
					s.GC(h)
				case op < 95:
					// An index DDL: add, drop or reorder the indexed bytes,
					// then re-key as the catalog does.
					switch rng.Intn(3) {
					case 0:
						if len(k.cols) < 3 {
							k.cols = append(k.cols, rng.Intn(3))
						}
					case 1:
						if len(k.cols) > 1 {
							i := rng.Intn(len(k.cols))
							k.cols = append(k.cols[:i], k.cols[i+1:]...)
						}
					default:
						rng.Shuffle(len(k.cols), func(i, j int) { k.cols[i], k.cols[j] = k.cols[j], k.cols[i] })
					}
					s.Rekey()
				}

				ix := rng.Intn(len(k.cols))
				lo, hi := randKey(), randKey()
				got := map[storage.RID]bool{}
				for _, rid := range s.PreKeyRIDs(ix, lo, hi, nil) {
					got[rid] = true
				}
				want := bruteKeyRIDs(s, k, ix, lo, hi)
				if len(got) != len(want) {
					t.Fatalf("step %d: PreKeyRIDs(%d, %x, %x) = %d RIDs, brute force %d", step, ix, lo, hi, len(got), len(want))
				}
				for rid := range want {
					if !got[rid] {
						t.Fatalf("step %d: PreKeyRIDs(%d, %x, %x) misses %v", step, ix, lo, hi, rid)
					}
				}
				var tx *Txn
				if len(active) > 0 {
					tx = active[rng.Intn(len(active))]
				}
				key := []byte{byte(rng.Intn(16))}
				if ix%2 == 1 {
					r := rids[rng.Intn(nrid)]
					key = append(key, byte(r.Page), byte(r.Slot>>8), byte(r.Slot))
				}
				if got, want := s.ShadowedKey(tx, ix, key), bruteShadowed(s, k, tx, ix, key); got != want {
					t.Fatalf("step %d: ShadowedKey(%d, %x) = %v, brute force %v", step, ix, key, got, want)
				}
				for i := range s.keyed {
					checkKeyIndex(t, &s.keyed[i])
				}
			}
			// Once every writer has finished and nothing pins a snapshot,
			// GC empties the store and every key list with it.
			for _, tx := range active {
				tx.Commit()
			}
			if !s.GC(mgr.Horizon()) {
				t.Fatal("store not empty after GC at the final horizon")
			}
			for i := range s.keyed {
				if n := len(s.keyed[i].chunks); n != 0 {
					t.Fatalf("index %d keeps %d chunks of keys after the store emptied", i, n)
				}
			}
			if len(s.unkeyed) != 0 {
				t.Fatalf("%d unkeyed RIDs after the store emptied", len(s.unkeyed))
			}
		})
	}
}

// TestKeyIndexChunks exercises chunk splits and merges of the ordered
// key list directly, against a sorted-slice oracle.
func TestKeyIndexChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x keyIndex
	type pair struct {
		key byte
		rid storage.RID
	}
	count := map[pair]int{}
	for step := 0; step < 20000; step++ {
		p := pair{byte(rng.Intn(64)), storage.RID{Page: storage.PageID(rng.Intn(8)), Slot: uint16(rng.Intn(16))}}
		if rng.Intn(3) > 0 {
			x.add([]byte{p.key}, p.rid)
			count[p]++
		} else {
			x.remove([]byte{p.key}, p.rid)
			if count[p] > 0 {
				count[p]--
			}
			if count[p] == 0 {
				delete(count, p)
			}
		}
	}
	checkKeyIndex(t, &x)
	var want []pair
	for p := range count {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].key != want[j].key {
			return want[i].key < want[j].key
		}
		return want[i].rid.Compare(want[j].rid) < 0
	})
	var got []pair
	x.scan(nil, nil, func(k []byte, rid storage.RID) bool {
		got = append(got, pair{k[0], rid})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if len(x.chunks) < 2 {
		t.Fatalf("expected the list to have split into several chunks, got %d", len(x.chunks))
	}
}

// TestResolve walks a chain for readers at different snapshots: each
// sees the newest version whose writer is visible to it, or nothing.
func TestResolve(t *testing.T) {
	mgr := NewManager()
	s := NewStore(nil, nil)
	rid := storage.RID{Page: 1, Slot: 0}

	before := mgr.Begin() // predates the row entirely
	ins := mgr.Begin()
	s.RecordWrite(ins, rid, nil) // insert "v1"
	ins.Commit()
	afterIns := mgr.Begin()
	upd := mgr.Begin()
	s.RecordWrite(upd, rid, []byte("v1")) // update v1 -> v2
	upd.Commit()
	afterUpd := mgr.Begin()
	del := mgr.Begin()
	s.RecordWrite(del, rid, []byte("v2")) // delete v2, still active

	cases := []struct {
		name   string
		reader *Txn
		want   string // "" = not visible
	}{
		{"older than the insert", before, ""},
		{"after the insert", afterIns, "v1"},
		{"after the update", afterUpd, "v2"},
		{"the deleter itself", del, ""},
	}
	for _, c := range cases {
		got, ok := s.Resolve(c.reader, rid, nil) // heap slot is dead
		if c.want == "" {
			if ok {
				t.Errorf("%s: got %q, want invisible", c.name, got)
			}
			continue
		}
		if !ok || string(got) != c.want {
			t.Errorf("%s: got %q (ok=%v), want %q", c.name, got, ok, c.want)
		}
	}

	// Without a chain the heap bytes are the answer, for anyone.
	other := storage.RID{Page: 1, Slot: 1}
	if got, ok := s.Resolve(before, other, []byte("heap")); !ok || string(got) != "heap" {
		t.Errorf("unchained rid: got %q (ok=%v), want heap bytes", got, ok)
	}
	if _, ok := s.Resolve(before, other, nil); ok {
		t.Error("unchained dead slot resolved as visible")
	}
}

// TestGCStopsAtHorizon checks that GC drops a chain's oldest entries
// only while their writers aborted or committed at or before the
// horizon, stops at the first entry that must stay, and unfiles the
// collected pre-images' keys.
func TestGCStopsAtHorizon(t *testing.T) {
	mgr := NewManager()
	k := &testKeyer{cols: []int{0}}
	s := NewStore(nil, k.keys)
	rid := storage.RID{Page: 1, Slot: 0}
	keyed := func(b byte) bool {
		return len(s.PreKeyRIDs(0, []byte{b}, []byte{b + 1}, nil)) > 0
	}

	w1 := mgr.Begin()
	s.RecordWrite(w1, rid, []byte{1})
	w1.Commit()
	w2 := mgr.Begin()
	s.RecordWrite(w2, rid, []byte{2})
	w2.Commit()
	ab := mgr.Begin()
	s.RecordWrite(ab, rid, []byte{3})
	active := mgr.Begin()
	s.RecordWrite(active, rid, []byte{4})
	ab.Abort() // an aborted entry older than the active one
	late := mgr.Begin()
	late.Commit()

	ts1 := w1.word.Load()

	// Below the first commit: nothing goes.
	s.GC(ts1 - 1)
	if n := len(s.chains[rid]); n != 4 {
		t.Fatalf("GC below every commit left %d entries, want 4", n)
	}
	// Between the two commits: only w1's entry goes.
	s.GC(ts1)
	if n := len(s.chains[rid]); n != 3 {
		t.Fatalf("GC at ts1 left %d entries, want 3", n)
	}
	if keyed(1) || !keyed(2) {
		t.Fatalf("after GC at ts1: key 1 filed=%v (want false), key 2 filed=%v (want true)", keyed(1), keyed(2))
	}
	// At a horizon past everything committed: w2's and the aborted
	// entry go, the active writer's entry stays.
	s.GC(late.word.Load())
	if n := len(s.chains[rid]); n != 1 || s.chains[rid][0].writer != active {
		t.Fatalf("GC at the newest commit left %d entries, want only the active writer's", n)
	}
	if keyed(2) || keyed(3) || !keyed(4) {
		t.Fatalf("after GC: keys 2,3 must be unfiled and 4 filed; got %v %v %v", keyed(2), keyed(3), keyed(4))
	}

	// An aborted entry newer than an active one is not collected: GC
	// stops at the first entry that must stay.
	rid2 := storage.RID{Page: 1, Slot: 1}
	a2 := mgr.Begin()
	s.RecordWrite(a2, rid2, []byte{5})
	b2 := mgr.Begin()
	s.RecordWrite(b2, rid2, []byte{6})
	b2.Abort()
	s.GC(mgr.Horizon())
	if n := len(s.chains[rid2]); n != 2 {
		t.Fatalf("GC collected past an active entry: %d entries left, want 2", n)
	}
	active.Commit()
	a2.Commit()
	if !s.GC(mgr.Horizon()) {
		t.Fatal("store not empty once every writer finished")
	}
	if keyed(4) || keyed(5) || keyed(6) {
		t.Fatal("keys still filed after the store emptied")
	}
}

// TestStoreConcurrentGC runs the store's concurrent surface at once: a
// writer (writers are serialized by the table latch, so one goroutine)
// records and pops entries and commits its transactions, while a
// committing session's GC and several readers' key lookups run beside
// it. Afterwards the lookups must still agree with the brute force.
func TestStoreConcurrentGC(t *testing.T) {
	mgr := NewManager()
	k := &testKeyer{cols: []int{0, 1}}
	s := NewStore(nil, k.keys)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			tx := mgr.Begin()
			for j := 0; j < 3; j++ {
				rid := storage.RID{Page: 1, Slot: uint16(rng.Intn(200))}
				s.RecordWrite(tx, rid, []byte{byte(rng.Intn(16)), byte(rng.Intn(16))})
				if rng.Intn(4) == 0 {
					s.PopWrite(tx, rid)
				}
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				tx.Commit()
			}
		}
	}()
	wg.Add(1)
	go func() { // GC from other sessions' transaction ends
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.GC(mgr.Horizon())
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers probing by key
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				b := byte(i % 16)
				for _, rid := range s.PreKeyRIDs(r%2, []byte{b}, []byte{b + 1}, nil) {
					s.HasChain(rid)
				}
				reader := mgr.Begin()
				s.ShadowedKey(reader, 0, []byte{b})
				reader.Abort()
			}
		}(r)
	}
	wg.Wait()
	for ix := 0; ix < 2; ix++ {
		got := map[storage.RID]bool{}
		for _, rid := range s.PreKeyRIDs(ix, nil, nil, nil) {
			got[rid] = true
		}
		want := bruteKeyRIDs(s, k, ix, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("index %d: %d RIDs filed, brute force %d", ix, len(got), len(want))
		}
	}
	if !s.GC(mgr.Horizon()) {
		t.Fatal("store not empty once every transaction finished")
	}
}
