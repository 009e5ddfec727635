package mvcc

import (
	"bytes"
	"sort"

	"repro/internal/storage"
)

// keyItem is one (key, RID) pair of a keyIndex with its multiplicity:
// a chain may hold several pre-images with the same key.
type keyItem struct {
	key []byte
	rid storage.RID
	n   int
}

// compareItem orders (key, rid) against an item: by key bytes, then RID.
func compareItem(key []byte, rid storage.RID, it *keyItem) int {
	if c := bytes.Compare(key, it.key); c != 0 {
		return c
	}
	return rid.Compare(it.rid)
}

// keyChunkMax bounds a chunk's length, and with it the items an insert
// or a delete moves.
const keyChunkMax = 128

// keyIndex is an ordered multiset of (key, RID) pairs: the pre-image
// keys of one index across a version store. It is a sorted run cut
// into bounded chunks — a two-level B-tree without the bookkeeping —
// so maintenance stays cheap while a bulk transaction chains many rows
// and a range lookup is a binary search plus a walk over the matches.
// Not safe for concurrent use; the store's mutex guards it.
type keyIndex struct {
	chunks [][]keyItem // each non-empty and sorted; concatenation sorted
}

// seek returns the position of the first item >= (key, rid): chunk c,
// offset i. c == len(chunks) means past the end.
func (x *keyIndex) seek(key []byte, rid storage.RID) (c, i int) {
	c = sort.Search(len(x.chunks), func(j int) bool {
		ch := x.chunks[j]
		return compareItem(key, rid, &ch[len(ch)-1]) <= 0
	})
	if c == len(x.chunks) {
		return c, 0
	}
	ch := x.chunks[c]
	i = sort.Search(len(ch), func(j int) bool { return compareItem(key, rid, &ch[j]) <= 0 })
	return c, i
}

// add inserts one occurrence of (key, rid). key is retained.
func (x *keyIndex) add(key []byte, rid storage.RID) {
	if len(x.chunks) == 0 {
		x.chunks = append(x.chunks, []keyItem{{key: key, rid: rid, n: 1}})
		return
	}
	c, i := x.seek(key, rid)
	if c == len(x.chunks) {
		c = len(x.chunks) - 1
		i = len(x.chunks[c])
	} else if compareItem(key, rid, &x.chunks[c][i]) == 0 {
		x.chunks[c][i].n++
		return
	}
	ch := append(x.chunks[c], keyItem{})
	copy(ch[i+1:], ch[i:])
	ch[i] = keyItem{key: key, rid: rid, n: 1}
	if len(ch) <= keyChunkMax {
		x.chunks[c] = ch
		return
	}
	half := len(ch) / 2
	hi := append([]keyItem(nil), ch[half:]...)
	x.chunks[c] = ch[:half:half]
	x.chunks = append(x.chunks, nil)
	copy(x.chunks[c+2:], x.chunks[c+1:])
	x.chunks[c+1] = hi
}

// remove drops one occurrence of (key, rid), if present.
func (x *keyIndex) remove(key []byte, rid storage.RID) {
	c, i := x.seek(key, rid)
	if c == len(x.chunks) || compareItem(key, rid, &x.chunks[c][i]) != 0 {
		return
	}
	ch := x.chunks[c]
	if ch[i].n > 1 {
		ch[i].n--
		return
	}
	copy(ch[i:], ch[i+1:])
	ch[len(ch)-1] = keyItem{}
	ch = ch[:len(ch)-1]
	if len(ch) > 0 {
		x.chunks[c] = ch
		return
	}
	copy(x.chunks[c:], x.chunks[c+1:])
	x.chunks[len(x.chunks)-1] = nil
	x.chunks = x.chunks[:len(x.chunks)-1]
}

// scan calls fn for every item with lo <= key < hi in (key, RID)
// order; nil bounds are open. It stops early when fn returns false.
func (x *keyIndex) scan(lo, hi []byte, fn func(key []byte, rid storage.RID) bool) {
	c, i := 0, 0
	if lo != nil {
		c, i = x.seek(lo, storage.RID{})
	}
	for ; c < len(x.chunks); c, i = c+1, 0 {
		for _, it := range x.chunks[c][i:] {
			if hi != nil && bytes.Compare(it.key, hi) >= 0 {
				return
			}
			if !fn(it.key, it.rid) {
				return
			}
		}
	}
}
