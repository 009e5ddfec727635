package btree

import "repro/internal/storage"

// Iterator walks entries in key order, one leaf at a time, so no page
// stays pinned between Next calls. On each leaf it visits it copies
// only the still-encoded entries that fall in [lo, hi) — one
// allocation per leaf — and then walks those bytes. Key therefore
// returns a slice that stays valid for the iterator's whole life.
//
// Each leaf is read under the tree's read lock. Writers that run
// between two leaves are not seen consistently: an entry inserted into
// a leaf already copied is missed, but the keys the walk yields stay
// strictly increasing and every entry present throughout the walk is
// yielded exactly once (splits only move entries to a new right
// sibling). The engine's table locks keep writers out of a statement's
// scans.
type Iterator struct {
	tree *BTree
	ents []byte // the current leaf's in-range entries, encoded
	off  int    // offset in ents of the entry after the current one
	key  []byte
	rid  storage.RID
	next storage.PageID // leaf to load after ents; Invalid once hi was met
	hi   []byte         // exclusive upper bound; nil = unbounded
	err  error
	done bool
}

// SeekRange returns an iterator positioned at the first key >= lo,
// stopping before hi (exclusive). lo nil means the smallest key; hi nil
// means unbounded.
func (t *BTree) SeekRange(lo, hi []byte) (*Iterator, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafID, err := t.descend(lo)
	if err != nil {
		return nil, err
	}
	it := &Iterator{tree: t, hi: hi}
	if err := it.load(leafID, lo); err != nil {
		return nil, err
	}
	return it, nil
}

// SeekPrefix returns an iterator over every key beginning with prefix.
func (t *BTree) SeekPrefix(prefix []byte) (*Iterator, error) {
	return t.SeekRange(prefix, PrefixSuccessor(prefix))
}

// Scan returns an iterator over the whole tree.
func (t *BTree) Scan() (*Iterator, error) { return t.SeekRange(nil, nil) }

// PrefixSuccessor returns the smallest byte string greater than every
// string with the given prefix, or nil if no such bound exists (the
// prefix is all 0xFF).
func PrefixSuccessor(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// load copies the entries of leaf id that lie in [lo, hi) and positions
// on the first of them, moving along the leaf chain past leaves with
// none (emptied by lazy deletion, or lo beyond their last key). Keys in
// later leaves all exceed lo, so lo applies to the first leaf only. The
// caller holds the tree's read lock.
func (it *Iterator) load(id storage.PageID, lo []byte) error {
	pool := it.tree.pool
	for id != storage.InvalidPageID {
		buf, err := pool.Fetch(id, storage.CatIndex)
		if err != nil {
			return err
		}
		n := nodeCount(buf)
		off, i, _ := leafSeek(buf, nodeHeader, 0, lo)
		end, next := 0, nodeLink(buf)
		if it.hi == nil {
			end = leafSkip(buf, off, n-i)
		} else {
			var j int
			if end, j, _ = leafSeek(buf, off, i, it.hi); j < n {
				next = storage.InvalidPageID // hi lies in this leaf
			}
		}
		if end > off {
			it.ents = append(make([]byte, 0, end-off), buf[off:end]...)
		}
		pool.Unpin(id, false)
		if end > off {
			it.off, it.next = 0, next
			it.step()
			return nil
		}
		id, lo = next, nil
	}
	it.done = true
	return nil
}

// step decodes the entry at it.off as the current one.
func (it *Iterator) step() {
	var v int
	it.key, v = entryKey(it.ents, it.off)
	it.rid = getRID(it.ents[v:])
	it.off = v + ridSize
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. Call it only while Valid() is true; the
// slice stays valid after the iterator moves on.
func (it *Iterator) Key() []byte { return it.key }

// RID returns the current record ID.
func (it *Iterator) RID() storage.RID { return it.rid }

// Next moves to the following entry.
func (it *Iterator) Next() {
	if it.done {
		return
	}
	if it.off < len(it.ents) {
		it.step()
		return
	}
	it.tree.mu.RLock()
	err := it.load(it.next, nil)
	it.tree.mu.RUnlock()
	if err != nil {
		it.err, it.done = err, true
	}
}
