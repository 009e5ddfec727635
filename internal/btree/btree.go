// Package btree implements a B+tree keyed by opaque byte strings whose
// pages live in the shared buffer pool. Because index pages compete for
// buffer-pool frames exactly like data pages, the paper's §5 effect —
// index-root eviction once the table count exhausts the meta-data
// budget — arises naturally.
//
// Keys must be unique at this layer. Non-unique SQL indexes append the
// record's RID encoding to the key (a "partitioned B-tree" in Graefe's
// sense: the leading columns are highly redundant and simply partition
// the tree, as the paper notes for (Tenant, Table, Chunk, Row) indexes).
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// ErrDuplicateKey is returned when inserting a key that already exists.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// ErrKeyNotFound is returned by Delete and Get for missing keys.
var ErrKeyNotFound = errors.New("btree: key not found")

// Node page layout:
//
//	[0]     isLeaf (1) / inner (0)
//	[1:3)   entry count, uint16
//	[3:11)  leaf: next-leaf PageID; inner: child[0] PageID
//	[11:)   entries, serialized back to back:
//	        leaf:  keyLen uvarint, key, page uint64, slot uint16
//	        inner: keyLen uvarint, key, child uint64
const nodeHeader = 11

type leafNode struct {
	next storage.PageID
	keys [][]byte
	rids []storage.RID
}

type innerNode struct {
	children []storage.PageID // len = len(keys)+1
	keys     [][]byte
}

// Logger receives redo records for tree page mutations. wal.Scope's
// TreeLogger implements it structurally; btree does not import wal.
// Every method is called BEFORE the corresponding bytes change, so a
// failed append leaves the tree untouched and in agreement with the
// log.
type Logger interface {
	// BTreePageAlloc records a fresh index-page allocation.
	BTreePageAlloc(page storage.PageID) error
	// BTreeInit records the formatting of page as an empty leaf.
	BTreeInit(page storage.PageID) error
	// BTreeInsert records adding key→rid on the leaf at page.
	BTreeInsert(page storage.PageID, key []byte, rid storage.RID) error
	// BTreeDelete records removing key from the leaf at page.
	BTreeDelete(page storage.PageID, key []byte) error
	// BTreeUpdate records repointing key to rid on the leaf at page.
	BTreeUpdate(page storage.PageID, key []byte, rid storage.RID) error
	// BTreePageImage records the full post-image of a restructured page.
	BTreePageImage(page storage.PageID, img []byte) error
	// BTreeRoot records a root change.
	BTreeRoot(old, new storage.PageID) error
}

// BTree is the tree handle. Mutations must be externally serialized
// against each other (the engine's table write locks do this). Readers
// search the pinned page bytes under the tree's read lock, so Get and
// SeekRange may run beside a writer; Iterator says what a walk then
// sees.
type BTree struct {
	pool   *storage.BufferPool
	mu     sync.RWMutex
	root   storage.PageID
	size   int64
	logger Logger
}

// New creates an empty tree with a single leaf root.
func New(pool *storage.BufferPool) (*BTree, error) {
	return NewLogged(pool, nil)
}

// NewLogged creates an empty tree, logging the root allocation and
// initialization through lg (which stays installed).
func NewLogged(pool *storage.BufferPool, lg Logger) (*BTree, error) {
	id, buf, err := pool.NewPage(storage.CatIndex)
	if err != nil {
		return nil, err
	}
	if lg != nil {
		if err := lg.BTreePageAlloc(id); err == nil {
			err = lg.BTreeInit(id)
		}
		if err != nil {
			pool.Unpin(id, false)
			_ = pool.FreePage(id)
			return nil, err
		}
	}
	encodeLeaf(buf, &leafNode{})
	pool.Unpin(id, true)
	return &BTree{pool: pool, root: id, logger: lg}, nil
}

// Restore rebuilds a tree handle over an existing root page (the
// recovery path). Call RecountSize afterwards to rebuild the entry
// count.
func Restore(pool *storage.BufferPool, root storage.PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// SetLogger installs (or, with nil, removes) the WAL logger. The
// engine swaps it per statement under the table's write lock.
func (t *BTree) SetLogger(lg Logger) {
	t.mu.Lock()
	t.logger = lg
	t.mu.Unlock()
}

// Root returns the current root page ID.
func (t *BTree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// SetRoot repoints the tree from old to new — the live replay of a
// primary's KBTreeRoot record on a replica, where the split that grew
// the tree happened through the redo path rather than through Insert.
// Reports whether the tree's root actually was old (a record belonging
// to some other table's index matches nothing).
func (t *BTree) SetRoot(old, new storage.PageID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root != old {
		return false
	}
	t.root = new
	return true
}

// Len returns the number of entries.
func (t *BTree) Len() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// --- node (de)serialization -------------------------------------------------

func isLeaf(buf []byte) bool { return buf[0] == 1 }

func decodeLeaf(buf []byte) *leafNode {
	n := int(binary.LittleEndian.Uint16(buf[1:3]))
	ln := &leafNode{
		next: storage.PageID(binary.LittleEndian.Uint64(buf[3:11])),
		keys: make([][]byte, 0, n),
		rids: make([]storage.RID, 0, n),
	}
	// All keys share one backing array (one allocation per decode, not
	// one per key). Each key is capped with a full slice expression so
	// an append through one can never clobber its neighbour. Key bytes
	// are immutable after decode: mutations replace whole entries in
	// ln.keys, they never write through the byte slices.
	total := 0
	for i, q := 0, nodeHeader; i < n; i++ {
		kl, sz := binary.Uvarint(buf[q:])
		q += sz + int(kl) + 10
		total += int(kl)
	}
	backing := make([]byte, 0, total)
	p := nodeHeader
	for i := 0; i < n; i++ {
		kl, sz := binary.Uvarint(buf[p:])
		p += sz
		start := len(backing)
		backing = append(backing, buf[p:p+int(kl)]...)
		p += int(kl)
		page := storage.PageID(binary.LittleEndian.Uint64(buf[p:]))
		slot := binary.LittleEndian.Uint16(buf[p+8:])
		p += 10
		ln.keys = append(ln.keys, backing[start:len(backing):len(backing)])
		ln.rids = append(ln.rids, storage.RID{Page: page, Slot: slot})
	}
	return ln
}

func encodeLeaf(buf []byte, n *leafNode) {
	buf[0] = 1
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(n.next))
	p := nodeHeader
	for i, k := range n.keys {
		p += binary.PutUvarint(buf[p:], uint64(len(k)))
		copy(buf[p:], k)
		p += len(k)
		binary.LittleEndian.PutUint64(buf[p:], uint64(n.rids[i].Page))
		binary.LittleEndian.PutUint16(buf[p+8:], n.rids[i].Slot)
		p += 10
	}
}

func decodeInner(buf []byte) *innerNode {
	n := int(binary.LittleEndian.Uint16(buf[1:3]))
	in := &innerNode{
		children: make([]storage.PageID, 1, n+1),
		keys:     make([][]byte, 0, n),
	}
	in.children[0] = storage.PageID(binary.LittleEndian.Uint64(buf[3:11]))
	p := nodeHeader
	for i := 0; i < n; i++ {
		kl, sz := binary.Uvarint(buf[p:])
		p += sz
		key := append([]byte(nil), buf[p:p+int(kl)]...)
		p += int(kl)
		child := storage.PageID(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
		in.keys = append(in.keys, key)
		in.children = append(in.children, child)
	}
	return in
}

func innerSize(n *innerNode) int {
	sz := nodeHeader
	for _, k := range n.keys {
		sz += uvarintLen(uint64(len(k))) + len(k) + 8
	}
	return sz
}

func encodeInner(buf []byte, n *innerNode) {
	buf[0] = 0
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(buf[3:11], uint64(n.children[0]))
	p := nodeHeader
	for i, k := range n.keys {
		p += binary.PutUvarint(buf[p:], uint64(len(k)))
		copy(buf[p:], k)
		p += len(k)
		binary.LittleEndian.PutUint64(buf[p:], uint64(n.children[i+1]))
		p += 8
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- search -------------------------------------------------------------------

// descend walks from the root to the leaf that would hold key, routing
// through each inner page in place. A nil key reaches the leftmost leaf.
func (t *BTree) descend(key []byte) (storage.PageID, error) {
	cur := t.root
	for {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			return 0, err
		}
		if isLeaf(buf) {
			t.pool.Unpin(cur, false)
			return cur, nil
		}
		_, child := innerChild(buf, key)
		t.pool.Unpin(cur, false)
		cur = child
	}
}

// Get returns the RID stored under key.
func (t *BTree) Get(key []byte) (storage.RID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leafID, err := t.descend(key)
	if err != nil {
		return storage.RID{}, err
	}
	buf, err := t.pool.Fetch(leafID, storage.CatIndex)
	if err != nil {
		return storage.RID{}, err
	}
	defer t.pool.Unpin(leafID, false)
	off, _, ok := leafSeek(buf, nodeHeader, 0, key)
	if !ok {
		return storage.RID{}, ErrKeyNotFound
	}
	_, v := entryKey(buf, off)
	return getRID(buf[v:]), nil
}

// Insert adds (key, rid). It fails with ErrDuplicateKey if key exists.
//
// Insert is atomic: it descends with every node on the path pinned,
// pre-allocates all pages the split chain needs, and only then applies
// the change with in-memory encodes that cannot fail. An I/O error at
// any point (page load, allocation, eviction write-back) leaves the
// tree exactly as it was, which is what lets the catalog undo-log a
// successful Insert with a plain Delete.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	maxEntry := leafEntrySize(len(key))
	if nodeHeader+2*maxEntry > t.pool.PageSize() {
		return fmt.Errorf("btree: key of %d bytes too large for page", len(key))
	}

	// Phase 1: descend to the target leaf keeping the whole path pinned.
	// Inner pages are routed in place; they are decoded only if the leaf
	// splits and the separator has to travel up.
	type pinnedInner struct {
		id       storage.PageID
		buf      []byte
		node     *innerNode // decoded by the split path
		childIdx int
		dirty    bool
	}
	var path []pinnedInner
	unpinPath := func() {
		for _, pn := range path {
			t.pool.Unpin(pn.id, pn.dirty)
		}
	}
	cur := t.root
	var leafID storage.PageID
	var leafBuf []byte
	for {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			unpinPath()
			return err
		}
		if isLeaf(buf) {
			leafID, leafBuf = cur, buf
			break
		}
		idx, child := innerChild(buf, key)
		path = append(path, pinnedInner{id: cur, buf: buf, childIdx: idx})
		cur = child
	}
	off, pos, end, exists := leafLocate(leafBuf, key)
	if exists {
		t.pool.Unpin(leafID, false)
		unpinPath()
		return ErrDuplicateKey
	}

	if end+maxEntry <= t.pool.PageSize() {
		if t.logger != nil {
			// Log before touching the page: a failed append leaves the
			// leaf exactly as it was.
			if err := t.logger.BTreeInsert(leafID, key, rid); err != nil {
				t.pool.Unpin(leafID, false)
				unpinPath()
				return err
			}
		}
		leafSplice(leafBuf, off, end, key, rid)
		t.pool.Unpin(leafID, true)
		unpinPath()
		t.size++
		return nil
	}
	ln := decodeLeaf(leafBuf)
	ln.keys = insertAt(ln.keys, pos, append([]byte(nil), key...))
	ln.rids = insertRIDAt(ln.rids, pos, rid)

	// Phase 2: the leaf splits. Materialize the split chain bottom-up on
	// the decoded copies, allocating every new page before touching any
	// existing one; failures free the fresh pages and leave no trace.
	var allocated []storage.PageID
	fail := func(err error) error {
		for _, id := range allocated {
			t.pool.Unpin(id, false)
			_ = t.pool.FreePage(id)
		}
		t.pool.Unpin(leafID, false)
		unpinPath()
		return err
	}

	mid := splitAt(ln.keys, ridSize, 0, t.pool.PageSize())
	rightLeaf := &leafNode{next: ln.next, keys: ln.keys[mid:], rids: ln.rids[mid:]}
	leftLeaf := &leafNode{keys: ln.keys[:mid], rids: ln.rids[:mid]}
	rightLeafID, rightLeafBuf, err := t.pool.NewPage(storage.CatIndex)
	if err != nil {
		return fail(err)
	}
	allocated = append(allocated, rightLeafID)
	leftLeaf.next = rightLeafID

	// carry is the (separator, right sibling) pair the level below pushes
	// up; absorbed reports whether some inner node had room for it.
	sep := append([]byte(nil), rightLeaf.keys[0]...)
	carryID := rightLeafID
	absorbed := false

	type innerSplit struct {
		level    int
		left     *innerNode
		right    *innerNode
		rightID  storage.PageID
		rightBuf []byte
	}
	var splits []innerSplit
	level := len(path) - 1
	for ; level >= 0; level-- {
		in := decodeInner(path[level].buf)
		path[level].node = in
		idx := path[level].childIdx
		in.keys = insertAt(in.keys, idx, sep)
		in.children = insertPIDAt(in.children, idx+1, carryID)
		path[level].dirty = true
		if innerSize(in) <= t.pool.PageSize() {
			absorbed = true
			break
		}
		m := splitAt(in.keys, childSize, 1, t.pool.PageSize())
		upKey := in.keys[m]
		right := &innerNode{keys: append([][]byte(nil), in.keys[m+1:]...),
			children: append([]storage.PageID(nil), in.children[m+1:]...)}
		left := &innerNode{keys: in.keys[:m], children: in.children[:m+1]}
		rightID, rightBuf, err := t.pool.NewPage(storage.CatIndex)
		if err != nil {
			return fail(err)
		}
		allocated = append(allocated, rightID)
		splits = append(splits, innerSplit{level: level, left: left, right: right,
			rightID: rightID, rightBuf: rightBuf})
		sep, carryID = upKey, rightID
	}
	var newRootID storage.PageID
	var newRootBuf []byte
	if !absorbed {
		newRootID, newRootBuf, err = t.pool.NewPage(storage.CatIndex)
		if err != nil {
			return fail(err)
		}
		allocated = append(allocated, newRootID)
	}

	// Phase 2.5: render every touched page into a scratch image. Splits
	// are logged as full post-images — replaying the split algorithm
	// byte-for-byte is exactly the fragility physiological logging avoids
	// at this one structural point — and the images must exist before any
	// pinned byte changes, so that a failed log append aborts cleanly.
	ps := t.pool.PageSize()
	type pageWrite struct {
		id  storage.PageID
		dst []byte // pinned frame
		img []byte // scratch post-image
	}
	var writes []pageWrite
	render := func(id storage.PageID, dst []byte, enc func([]byte)) {
		img := make([]byte, ps)
		enc(img)
		writes = append(writes, pageWrite{id: id, dst: dst, img: img})
	}
	render(rightLeafID, rightLeafBuf, func(b []byte) { encodeLeaf(b, rightLeaf) })
	render(leafID, leafBuf, func(b []byte) { encodeLeaf(b, leftLeaf) })
	for _, s := range splits {
		s := s
		render(s.rightID, s.rightBuf, func(b []byte) { encodeInner(b, s.right) })
		path[s.level].node = s.left
	}
	lowest := level // absorbed: untouched levels above the absorbing node
	if lowest < 0 {
		lowest = 0 // full-height split: every path level re-encodes
	}
	for l := lowest; l < len(path); l++ {
		n := path[l].node
		render(path[l].id, path[l].buf, func(b []byte) { encodeInner(b, n) })
	}
	if !absorbed {
		render(newRootID, newRootBuf, func(b []byte) {
			encodeInner(b, &innerNode{children: []storage.PageID{t.root, carryID}, keys: [][]byte{sep}})
		})
	}

	if t.logger != nil {
		for _, id := range allocated {
			if err := t.logger.BTreePageAlloc(id); err != nil {
				return fail(err)
			}
		}
		for _, w := range writes {
			if err := t.logger.BTreePageImage(w.id, w.img); err != nil {
				return fail(err)
			}
		}
		if !absorbed {
			if err := t.logger.BTreeRoot(t.root, newRootID); err != nil {
				return fail(err)
			}
		}
	}

	// Phase 3: apply. Plain copies into pinned frames cannot fail.
	for _, w := range writes {
		copy(w.dst, w.img)
	}
	t.pool.Unpin(rightLeafID, true)
	t.pool.Unpin(leafID, true)
	for _, s := range splits {
		t.pool.Unpin(s.rightID, true)
	}
	if !absorbed {
		t.pool.Unpin(newRootID, true)
		t.root = newRootID
	}
	unpinPath()
	t.size++
	return nil
}

// Delete removes key. Underflowed nodes are left in place (lazy
// deletion); pages are only reclaimed by Drop.
func (t *BTree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leafID, err := t.descend(key)
	if err != nil {
		return err
	}
	buf, err := t.pool.Fetch(leafID, storage.CatIndex)
	if err != nil {
		return err
	}
	off, _, end, ok := leafLocate(buf, key)
	if !ok {
		t.pool.Unpin(leafID, false)
		return ErrKeyNotFound
	}
	if t.logger != nil {
		if err := t.logger.BTreeDelete(leafID, key); err != nil {
			t.pool.Unpin(leafID, false)
			return err
		}
	}
	leafCut(buf, off, end)
	t.pool.Unpin(leafID, true)
	t.size--
	return nil
}

// Update changes the RID stored under an existing key.
func (t *BTree) Update(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leafID, err := t.descend(key)
	if err != nil {
		return err
	}
	buf, err := t.pool.Fetch(leafID, storage.CatIndex)
	if err != nil {
		return err
	}
	off, _, ok := leafSeek(buf, nodeHeader, 0, key)
	if !ok {
		t.pool.Unpin(leafID, false)
		return ErrKeyNotFound
	}
	if t.logger != nil {
		if err := t.logger.BTreeUpdate(leafID, key, rid); err != nil {
			t.pool.Unpin(leafID, false)
			return err
		}
	}
	leafSetRID(buf, off, rid)
	t.pool.Unpin(leafID, true)
	return nil
}

// Height returns the number of levels (1 for a lone leaf).
func (t *BTree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := 1
	cur := t.root
	for {
		buf, err := t.pool.Fetch(cur, storage.CatIndex)
		if err != nil {
			return 0, err
		}
		leaf, next := isLeaf(buf), nodeLink(buf)
		t.pool.Unpin(cur, false)
		if leaf {
			return h, nil
		}
		h++
		cur = next
	}
}

// Drop frees every page of the tree. The tree is unusable afterwards.
func (t *BTree) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropRec(t.root)
}

func (t *BTree) dropRec(id storage.PageID) error {
	buf, err := t.pool.Fetch(id, storage.CatIndex)
	if err != nil {
		return err
	}
	var children []storage.PageID
	if !isLeaf(buf) {
		children = decodeInner(buf).children
	}
	t.pool.Unpin(id, false)
	for _, c := range children {
		if err := t.dropRec(c); err != nil {
			return err
		}
	}
	return t.pool.FreePage(id)
}

// splitAt picks where an overfull node's keys split: the middle, unless
// keys of very different lengths would leave a half too big for its
// page, in which case the split point moves toward the smaller half.
// Such a point always exists because no entry exceeds half a page.
// valSize is the per-entry value size; up is 1 for an inner split,
// which pushes keys[mid] up instead of keeping it in either half.
func splitAt(keys [][]byte, valSize, up, pageSize int) int {
	size := func(ks [][]byte) int {
		sz := nodeHeader
		for _, k := range ks {
			sz += uvarintLen(uint64(len(k))) + len(k) + valSize
		}
		return sz
	}
	mid := len(keys) / 2
	for mid > 0 && size(keys[:mid]) > pageSize {
		mid--
	}
	for mid < len(keys)-1 && size(keys[mid+up:]) > pageSize {
		mid++
	}
	return mid
}

func insertAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRIDAt(s []storage.RID, i int, v storage.RID) []storage.RID {
	s = append(s, storage.RID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPIDAt(s []storage.PageID, i int, v storage.PageID) []storage.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
