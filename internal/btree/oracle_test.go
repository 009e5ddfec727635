package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/storage"
)

// oracle drives a tree and a map model through the same operations and
// reports the first disagreement. Every Insert, Delete and Update that
// does not split also has its leaf checked byte for byte against the
// decode → change → encodeLeaf reference, both as the tree applied it
// and as the matching Replay* function applies it to a copy of the
// pre-image.
type oracle struct {
	pool  *storage.BufferPool
	tr    *BTree
	model map[string]storage.RID
}

func newOracle(pageSize int) (*oracle, error) {
	pool := newPool(pageSize)
	tr, err := New(pool)
	if err != nil {
		return nil, err
	}
	return &oracle{pool: pool, tr: tr, model: map[string]storage.RID{}}, nil
}

// leafImage returns the leaf that would hold key and a copy of its bytes.
func (o *oracle) leafImage(key []byte) (storage.PageID, []byte, error) {
	id, err := o.tr.descend(key)
	if err != nil {
		return 0, nil, err
	}
	buf, err := o.pool.Fetch(id, storage.CatIndex)
	if err != nil {
		return 0, nil, err
	}
	img := append([]byte(nil), buf...)
	o.pool.Unpin(id, false)
	return id, img, nil
}

// reference applies change to the decoded leaf image pre and encodes the
// result over a copy of pre: the bytes an in-place change must leave.
// It reports false when the changed leaf no longer fits (a split).
func reference(pre []byte, change func(*leafNode)) ([]byte, bool) {
	ln := decodeLeaf(pre)
	change(ln)
	size := nodeHeader
	for _, k := range ln.keys {
		size += leafEntrySize(len(k))
	}
	if size > len(pre) {
		return nil, false
	}
	ref := append([]byte(nil), pre...)
	encodeLeaf(ref, ln)
	return ref, true
}

// checkPage compares the page id against want.
func (o *oracle) checkPage(id storage.PageID, want []byte, what string) error {
	buf, err := o.pool.Fetch(id, storage.CatIndex)
	if err != nil {
		return err
	}
	defer o.pool.Unpin(id, false)
	if !bytes.Equal(buf, want) {
		return fmt.Errorf("%s: page %d differs from the decode/encode reference", what, id)
	}
	return nil
}

// checkReplay applies redo to a scratch page holding pre and compares
// the result against want.
func (o *oracle) checkReplay(pre, want []byte, what string, redo func(storage.PageID) error) error {
	id, buf, err := o.pool.NewPage(storage.CatIndex)
	if err != nil {
		return err
	}
	copy(buf, pre)
	o.pool.Unpin(id, true)
	defer o.pool.FreePage(id)
	if err := redo(id); err != nil {
		return fmt.Errorf("%s: %v", what, err)
	}
	return o.checkPage(id, want, what)
}

func (o *oracle) insert(k []byte, rid storage.RID) error {
	id, pre, err := o.leafImage(k)
	if err != nil {
		return err
	}
	err = o.tr.Insert(k, rid)
	if _, exists := o.model[string(k)]; exists {
		if !errors.Is(err, ErrDuplicateKey) {
			return fmt.Errorf("insert %q: want duplicate error, got %v", k, err)
		}
		return o.checkPage(id, pre, "duplicate insert")
	}
	if err != nil {
		return fmt.Errorf("insert %q: %v", k, err)
	}
	o.model[string(k)] = rid
	ref, fits := reference(pre, func(ln *leafNode) {
		pos := sort.Search(len(ln.keys), func(i int) bool { return bytes.Compare(ln.keys[i], k) >= 0 })
		ln.keys = insertAt(ln.keys, pos, k)
		ln.rids = insertRIDAt(ln.rids, pos, rid)
	})
	if !fits {
		return nil // split: restructured pages are logged as images
	}
	if err := o.checkPage(id, ref, "insert"); err != nil {
		return err
	}
	return o.checkReplay(pre, ref, "replay insert", func(p storage.PageID) error {
		return ReplayInsert(o.pool, p, k, rid)
	})
}

// modify runs Delete (rid nil) or Update on k and checks the leaf.
func (o *oracle) modify(k []byte, rid *storage.RID) error {
	id, pre, err := o.leafImage(k)
	if err != nil {
		return err
	}
	what := "delete"
	if rid != nil {
		what = "update"
		err = o.tr.Update(k, *rid)
	} else {
		err = o.tr.Delete(k)
	}
	if _, exists := o.model[string(k)]; !exists {
		if !errors.Is(err, ErrKeyNotFound) {
			return fmt.Errorf("%s %q: want not-found, got %v", what, k, err)
		}
		return o.checkPage(id, pre, what+" of a missing key")
	}
	if err != nil {
		return fmt.Errorf("%s %q: %v", what, k, err)
	}
	ref, _ := reference(pre, func(ln *leafNode) {
		pos := sort.Search(len(ln.keys), func(i int) bool { return bytes.Compare(ln.keys[i], k) >= 0 })
		if rid != nil {
			ln.rids[pos] = *rid
			return
		}
		ln.keys = append(ln.keys[:pos], ln.keys[pos+1:]...)
		ln.rids = append(ln.rids[:pos], ln.rids[pos+1:]...)
	})
	if err := o.checkPage(id, ref, what); err != nil {
		return err
	}
	if rid != nil {
		o.model[string(k)] = *rid
		return o.checkReplay(pre, ref, "replay update", func(p storage.PageID) error {
			return ReplayUpdate(o.pool, p, k, *rid)
		})
	}
	delete(o.model, string(k))
	return o.checkReplay(pre, ref, "replay delete", func(p storage.PageID) error {
		return ReplayDelete(o.pool, p, k)
	})
}

func (o *oracle) get(k []byte) error {
	rid, err := o.tr.Get(k)
	want, exists := o.model[string(k)]
	switch {
	case exists && (err != nil || rid != want):
		return fmt.Errorf("get %q = %v, %v; want %v", k, rid, err, want)
	case !exists && !errors.Is(err, ErrKeyNotFound):
		return fmt.Errorf("get of missing %q = %v, %v", k, rid, err)
	}
	return nil
}

// sorted returns the model's keys in order.
func (o *oracle) sorted() []string {
	keys := make([]string, 0, len(o.model))
	for k := range o.model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seek checks SeekRange(lo, hi) against the model's keys in [lo, hi).
// Every yielded key must also still read the same after the walk.
func (o *oracle) seek(lo, hi []byte) error {
	it, err := o.tr.SeekRange(lo, hi)
	if err != nil {
		return err
	}
	var want []string
	for _, k := range o.sorted() {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			want = append(want, k)
		}
	}
	var got [][]byte
	for ; it.Valid(); it.Next() {
		if len(got) == len(want) {
			return fmt.Errorf("seek [%q, %q): extra key %q", lo, hi, it.Key())
		}
		if k := want[len(got)]; string(it.Key()) != k || it.RID() != o.model[k] {
			return fmt.Errorf("seek [%q, %q) entry %d = %q %v, want %q %v",
				lo, hi, len(got), it.Key(), it.RID(), k, o.model[k])
		}
		got = append(got, it.Key())
	}
	if err := it.Err(); err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("seek [%q, %q) yielded %d keys, want %d", lo, hi, len(got), len(want))
	}
	for i, k := range got {
		if string(k) != want[i] {
			return fmt.Errorf("seek [%q, %q): key %d changed to %q after the walk", lo, hi, i, k)
		}
	}
	return nil
}

// checkAll compares Len and a full scan with the model.
func (o *oracle) checkAll() error {
	if o.tr.Len() != int64(len(o.model)) {
		return fmt.Errorf("Len = %d, model has %d", o.tr.Len(), len(o.model))
	}
	return o.seek(nil, nil)
}

// varKeys returns n distinct keys of 1–40 bytes sharing a few prefixes,
// some suffixed with an encoded RID the way non-unique index keys are,
// plus about one in twenty of 128–160 bytes, whose length takes a
// 2-byte uvarint.
func varKeys(r *rand.Rand, n int) [][]byte {
	prefixes := []string{"", "t", "t01/", "t01/acct/", "t02/", "\x00", "\xff"}
	seen := map[string]bool{}
	var out [][]byte
	for len(out) < n {
		k := []byte(prefixes[r.Intn(len(prefixes))])
		size := 1 + r.Intn(40)
		if r.Intn(20) == 0 {
			size = 128 + r.Intn(33)
		}
		ridSuffix := size > len(k)+10 && r.Intn(3) == 0
		tail := size - len(k)
		if ridSuffix {
			tail -= 10
		}
		for i := 0; i < tail; i++ {
			k = append(k, "abc\x00\xfe"[r.Intn(5)])
		}
		if ridSuffix {
			k = binary.BigEndian.AppendUint64(k, uint64(r.Intn(4)))
			k = binary.BigEndian.AppendUint16(k, uint16(r.Intn(4)))
		}
		if len(k) == 0 || seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		out = append(out, k)
	}
	return out
}

// bound picks a SeekRange bound: nil, a key of the universe, a string
// just above or a prefix just below one, or a bound past either end.
func bound(r *rand.Rand, universe [][]byte) []byte {
	return boundOf(r.Intn(6), universe[r.Intn(len(universe))], r.Intn(1<<16))
}

func boundOf(kind int, k []byte, cut int) []byte {
	switch kind % 6 {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		return bytes.Repeat([]byte{0xff}, 200)
	case 3:
		return append(append([]byte(nil), k...), 0)
	case 4:
		return k[:cut%len(k)]
	}
	return k
}

// FuzzLeafOps runs byte-coded operation sequences against the oracle:
// each op is three bytes (opcode, key or bound, RID or bound) over a
// fixed universe of 64 varied keys on 512-byte pages, so a few dozen
// inserts already split leaves and a run of deletes empties them.
// Inputs are cut at 300 ops, which keeps minimizing a new input cheap.
func FuzzLeafOps(f *testing.F) {
	universe := varKeys(rand.New(rand.NewSource(1)), 64)
	f.Add([]byte{0, 1, 2, 0, 2, 3, 5, 0, 0, 1, 1, 0, 4, 0, 6})
	seed := make([]byte, 0, 600)
	for i := 0; i < 64; i++ {
		seed = append(seed, 0, byte(i), byte(i))
	}
	for i := 0; i < 40; i++ {
		seed = append(seed, 1, byte(i), 0)
	}
	seed = append(seed, 5, 0, 0, 5, 3, 9, 5, 4, 27, 2, 7, 7, 3, 8, 0)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := newOracle(512)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 900 {
			data = data[:900]
		}
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, b := data[i], int(data[i+1]), int(data[i+2])
			k := universe[a%len(universe)]
			rid := storage.RID{Page: storage.PageID(b), Slot: uint16(a)}
			switch op % 6 {
			case 0:
				err = o.insert(k, rid)
			case 1:
				err = o.modify(k, nil)
			case 2:
				err = o.modify(k, &rid)
			case 3:
				err = o.get(k)
			default:
				lo := boundOf(a, universe[(a/6)%len(universe)], b)
				hi := boundOf(b, universe[(b/6)%len(universe)], a)
				err = o.seek(lo, hi)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
		}
		if err := o.checkAll(); err != nil {
			t.Fatal(err)
		}
	})
}
