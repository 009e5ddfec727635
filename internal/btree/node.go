package btree

import (
	"bytes"
	"encoding/binary"

	"repro/internal/storage"
)

// In-place node access. Searches, iteration and single-entry leaf
// changes work directly on the encoded bytes of a pinned frame, in the
// page layout documented at nodeHeader; nothing here allocates. Only a
// split decodes whole nodes (decodeLeaf/decodeInner) and re-encodes
// them. The in-place writes produce exactly the bytes the decode →
// change → encodeLeaf round trip would, including the stale tail past
// the last entry, so page images and the redo contract are unchanged.

const (
	ridSize   = 10 // leaf value: page uint64, slot uint16
	childSize = 8  // inner value: child uint64
)

func nodeCount(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[1:3])) }

func setNodeCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[1:3], uint16(n)) }

// nodeLink reads the header's page link: a leaf's next sibling, an
// inner node's child[0].
func nodeLink(buf []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint64(buf[3:11]))
}

// entryKey decodes the key of the entry at off. It returns the key,
// aliasing buf and capped so an append cannot clobber the bytes after
// it, and the offset of the entry's value.
func entryKey(buf []byte, off int) ([]byte, int) {
	kl, sz := int(buf[off]), 1
	if kl >= 0x80 {
		v, n := binary.Uvarint(buf[off:])
		kl, sz = int(v), n
	}
	p := off + sz
	return buf[p : p+kl : p+kl], p + kl
}

func getRID(b []byte) storage.RID {
	return storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint64(b)),
		Slot: binary.LittleEndian.Uint16(b[8:]),
	}
}

func putRID(b []byte, rid storage.RID) {
	binary.LittleEndian.PutUint64(b, uint64(rid.Page))
	binary.LittleEndian.PutUint16(b[8:], rid.Slot)
}

// leafEntrySize is the encoded size of a leaf entry with a klen-byte key.
func leafEntrySize(klen int) int { return uvarintLen(uint64(klen)) + klen + ridSize }

// leafSeek scans the encoded leaf from the i-th entry, which starts at
// byte off, for the first entry whose key is >= key. It returns that
// entry's offset and index (the end of the entries and the count if
// there is none) and whether its key equals key. A nil key stops at
// the i-th entry.
func leafSeek(buf []byte, off, i int, key []byte) (int, int, bool) {
	n := nodeCount(buf)
	for ; i < n; i++ {
		k, v := entryKey(buf, off)
		if c := bytes.Compare(k, key); c >= 0 {
			return off, i, c == 0
		}
		off = v + ridSize
	}
	return off, n, false
}

// leafSkip returns the offset n entries past the entry at off.
func leafSkip(buf []byte, off, n int) int {
	for ; n > 0; n-- {
		_, v := entryKey(buf, off)
		off = v + ridSize
	}
	return off
}

// leafLocate finds key in the encoded leaf: the offset and index of the
// first entry >= key, the end of the entries, and whether the key is
// present. It is what an in-place splice or cut needs.
func leafLocate(buf, key []byte) (off, i, end int, found bool) {
	off, i, found = leafSeek(buf, nodeHeader, 0, key)
	return off, i, leafSkip(buf, off, nodeCount(buf)-i), found
}

// leafSplice writes key→rid as a new entry at off, moving the entries
// in [off, end) right. The caller has checked that the grown leaf fits.
func leafSplice(buf []byte, off, end int, key []byte, rid storage.RID) {
	sz := leafEntrySize(len(key))
	copy(buf[off+sz:end+sz], buf[off:end])
	p := off + binary.PutUvarint(buf[off:], uint64(len(key)))
	p += copy(buf[p:], key)
	putRID(buf[p:], rid)
	setNodeCount(buf, nodeCount(buf)+1)
}

// leafCut removes the entry at off, moving the entries after it, up to
// end, left.
func leafCut(buf []byte, off, end int) {
	_, v := entryKey(buf, off)
	copy(buf[off:], buf[v+ridSize:end])
	setNodeCount(buf, nodeCount(buf)-1)
}

// leafSetRID repoints the entry at off to rid.
func leafSetRID(buf []byte, off int, rid storage.RID) {
	_, v := entryKey(buf, off)
	putRID(buf[v:], rid)
}

// innerChild routes key through the encoded inner node: the child right
// of the largest separator <= key, or child[0] if there is none. It
// returns the child's index too, which a split needs.
func innerChild(buf, key []byte) (int, storage.PageID) {
	n := nodeCount(buf)
	child := nodeLink(buf)
	off := nodeHeader
	for i := 0; i < n; i++ {
		k, v := entryKey(buf, off)
		if bytes.Compare(k, key) > 0 {
			return i, child
		}
		child = storage.PageID(binary.LittleEndian.Uint64(buf[v:]))
		off = v + childSize
	}
	return n, child
}
