package btree

import (
	"fmt"

	"repro/internal/storage"
)

// This file holds the recovery side of the tree: page-level replay
// helpers the engine's redo pass calls, and the walkers that rebuild
// derived state (entry count) or enumerate pages for deferred drops.
// Replay operates on single pages through the buffer pool — the
// physiological contract: records name a page, application is logical
// within it.

// Pages returns every page of the tree (pre-order). Used by DROP to
// collect pages for commit-deferred freeing.
func (t *BTree) Pages() ([]storage.PageID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []storage.PageID
	var walk func(id storage.PageID) error
	walk = func(id storage.PageID) error {
		buf, err := t.pool.Fetch(id, storage.CatIndex)
		if err != nil {
			return err
		}
		var children []storage.PageID
		if !isLeaf(buf) {
			children = decodeInner(buf).children
		}
		t.pool.Unpin(id, false)
		out = append(out, id)
		for _, c := range children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// RecountSize rebuilds the entry count by walking the leaf chain —
// derived state the log deliberately does not carry. Only the page
// headers are read.
func (t *BTree) RecountSize() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, err := t.descend(nil)
	if err != nil {
		return err
	}
	var n int64
	for cur != storage.InvalidPageID {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			return err
		}
		n += int64(nodeCount(buf))
		next := nodeLink(buf)
		t.pool.Unpin(cur, false)
		cur = next
	}
	t.size = n
	return nil
}

// ReplayInit formats page as an empty leaf (redo of KBTreeInit).
func ReplayInit(pool *storage.BufferPool, page storage.PageID) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	encodeLeaf(buf, &leafNode{})
	pool.Unpin(page, true)
	return nil
}

// The leaf redo helpers below apply a record with the same in-place
// functions Insert, Delete and Update use, so primary and replay
// produce the same bytes.

// ReplayInsert redoes a leaf insert of key→rid on page. The pageLSN
// skip guarantees the leaf is in the pre-record state, so the key must
// be absent and must fit.
func ReplayInsert(pool *storage.BufferPool, page storage.PageID, key []byte, rid storage.RID) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	off, _, end, exists := leafLocate(buf, key)
	if exists {
		pool.Unpin(page, false)
		return fmt.Errorf("btree: replay insert of existing key on page %d", page)
	}
	if end+leafEntrySize(len(key)) > pool.PageSize() {
		pool.Unpin(page, false)
		return fmt.Errorf("btree: replay insert overflows page %d", page)
	}
	leafSplice(buf, off, end, key, rid)
	pool.Unpin(page, true)
	return nil
}

// ReplayDelete redoes a leaf delete of key on page.
func ReplayDelete(pool *storage.BufferPool, page storage.PageID, key []byte) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	off, _, end, ok := leafLocate(buf, key)
	if !ok {
		pool.Unpin(page, false)
		return fmt.Errorf("btree: replay delete of missing key on page %d", page)
	}
	leafCut(buf, off, end)
	pool.Unpin(page, true)
	return nil
}

// ReplayUpdate redoes a leaf RID repoint of key on page.
func ReplayUpdate(pool *storage.BufferPool, page storage.PageID, key []byte, rid storage.RID) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	off, _, ok := leafSeek(buf, nodeHeader, 0, key)
	if !ok {
		pool.Unpin(page, false)
		return fmt.Errorf("btree: replay update of missing key on page %d", page)
	}
	leafSetRID(buf, off, rid)
	pool.Unpin(page, true)
	return nil
}

// ReplayImage redoes a full-page image (redo of KBTreeImage).
func ReplayImage(pool *storage.BufferPool, page storage.PageID, img []byte) error {
	buf, err := pool.Fetch(page, storage.CatIndex)
	if err != nil {
		return err
	}
	copy(buf, img)
	pool.Unpin(page, true)
	return nil
}
