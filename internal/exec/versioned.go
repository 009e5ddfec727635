// Snapshot-consistent scans. The physical heap and indexes always hold
// the newest version of every row; transactions that must not see
// uncommitted or too-new writes read through the table's version
// chains instead. The split is surgical: a scan skips exactly the RIDs
// that have a chain (the chain, not the page, decides what this
// transaction sees for them) and then enumerates the chained RIDs'
// visible versions separately. Rows without a chain have exactly one
// version, visible to everyone, so the fast path stays byte-identical
// — and a database with no version chains never enters this file.
//
// Index probes get the same treatment, with one extra obligation: a
// chained row's visible version may carry a different key than its
// physical row (or no physical row at all). A visible version's key is
// either its heap key — which the B+tree holds, so the probe's own
// tree walk meets the RID — or the key of one of its pre-images, which
// the version store files by key. A probe therefore resolves only the
// RIDs its walk meets with a chain plus the RIDs holding a pre-image
// keyed in its range (keyProbe), re-applying the [lo, hi) key range to
// each visible version by encoding its index key and comparing bytes —
// exactly the criterion the B+tree iterator applies to stored keys.
package exec

import (
	"bytes"
	"sort"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// versionedTable reports whether scans of t under ctx must resolve
// row versions. False for autocommit statements with no concurrent
// transactions — the common case — which keeps the plain path intact.
func versionedTable(ctx *Context, t *catalog.Table) bool {
	return ctx != nil && ctx.Txn != nil && t.Vers != nil && t.Vers.HasVersions()
}

// chainSet is the set of RIDs that had a version chain when a
// sequential scan began. A scan must capture it ONCE and use it both
// to skip physical rows and as the domain of its version enumeration:
// the version store's GC runs from concurrently committing sessions
// without the table lock, so a live HasChain probe can flip mid-scan —
// a chain collected between the enumeration and the page visit would
// return the row twice (or, probed in the other order, not at all).
// With one captured set the two halves of the scan partition the table
// exactly, whatever GC does meanwhile: a captured RID whose chain has
// since been collected resolves to its heap bytes, which is precisely
// the version a collectable chain left visible to every live snapshot.
// A full scan visits every chain anyway, so capturing them all costs
// it nothing extra; index probes route RIDs instead (keyProbe).
type chainSet map[storage.RID]struct{}

func (cs chainSet) has(rid storage.RID) bool {
	_, ok := cs[rid]
	return ok
}

// captureChains snapshots t's chained RIDs: the membership set (the
// scan's skip predicate) and the ordered slice (the enumeration
// domain for VisibleVersions).
func captureChains(t *catalog.Table) (chainSet, []storage.RID) {
	rids := t.Vers.RIDs()
	set := make(chainSet, len(rids))
	for _, rid := range rids {
		set[rid] = struct{}{}
	}
	return set, rids
}

// inKeyRange replicates the B+tree SeekRange criterion lo <= key < hi
// (nil bounds are open) for a key not present in the tree.
func inKeyRange(key, lo, hi []byte) bool {
	if lo != nil && bytes.Compare(key, lo) < 0 {
		return false
	}
	if hi != nil && bytes.Compare(key, hi) >= 0 {
		return false
	}
	return true
}

// extraRec is one chained RID's snapshot-visible record bytes.
type extraRec struct {
	rid storage.RID
	rec []byte
}

// versionedRecs returns the visible bytes of the captured chained RIDs
// of t, in RID order. The bytes are safe to retain until the statement
// ends.
func versionedRecs(ctx *Context, t *catalog.Table, rids []storage.RID) ([]extraRec, error) {
	var out []extraRec
	err := t.VisibleVersions(ctx.Txn, rids, func(rid storage.RID, rec []byte) error {
		out = append(out, extraRec{rid: rid, rec: rec})
		return nil
	})
	return out, err
}

// keyProbe routes the RIDs of one index probe over [lo, hi) under a
// snapshot, so the probe resolves O(matches) version chains instead of
// all of them. start takes the candidates — RIDs holding a pre-image
// keyed in range — once; the tree walk then asks chained for every RID
// it meets, and each RID takes exactly one route: the heap (unchained,
// not a candidate: its one version is the physical row) or the chain
// path (chained, or a candidate). After the walk, resolve yields the
// chain path's visible versions in RID order; the caller decodes each
// and keeps it iff inRange.
//
// Route-once is sound because chains cannot appear while the statement
// holds its shared latch (writers, undo and replica apply all need the
// table exclusively) and GC only shrinks them. A chain the walk still
// sees keeps its RID off the heap route; one collected before the walk
// reaches its RID leaves heap bytes that every live snapshot sees,
// which is exactly what the heap route reads. A candidate's pre-image
// this snapshot needs cannot be collected: GC keeps every entry whose
// writer some live snapshot cannot see.
type keyProbe struct {
	t      *catalog.Table
	ix     *catalog.Index
	lo, hi []byte
	cands  []storage.RID // pre-image keyed in [lo, hi): sorted, unique
	routed []storage.RID // met by the walk with a chain, not candidates
	recs   []extraRec
}

// start begins a probe: it takes the candidates and counts the probe.
func (p *keyProbe) start(t *catalog.Table, ix *catalog.Index, lo, hi []byte, cnt *scanCounters) error {
	p.t, p.ix, p.lo, p.hi = t, ix, lo, hi
	cands, err := t.PreKeyRIDs(ix, lo, hi, p.cands[:0])
	if err != nil {
		return err
	}
	p.cands = sortedUnique(cands)
	p.routed = p.routed[:0]
	cnt.probes++
	return nil
}

// chained reports whether the walk must leave rid to the chain path.
func (p *keyProbe) chained(rid storage.RID) bool {
	if len(p.cands) > 0 {
		i := sort.Search(len(p.cands), func(i int) bool { return p.cands[i].Compare(rid) >= 0 })
		if i < len(p.cands) && p.cands[i] == rid {
			return true
		}
	}
	if p.t.Vers.HasChain(rid) {
		p.routed = append(p.routed, rid)
		return true
	}
	return false
}

// resolve returns the snapshot-visible bytes of every chain-path RID
// in RID order, once the walk has ended. The slice is reused by the
// next probe; the bytes are safe to retain.
func (p *keyProbe) resolve(ctx *Context, cnt *scanCounters) ([]extraRec, error) {
	rids := sortedUnique(append(p.routed, p.cands...))
	p.routed = rids[:0]
	p.recs = p.recs[:0]
	cnt.resolved += int64(len(rids))
	for _, rid := range rids {
		rec, ok, err := p.t.VisibleVersion(ctx.Txn, rid)
		if err != nil {
			return nil, err
		}
		if ok {
			p.recs = append(p.recs, extraRec{rid: rid, rec: rec})
		}
	}
	return p.recs, nil
}

// inRange reports whether row — a resolved version of rid, decoded
// with at least the index's columns — has its key in [lo, hi).
func (p *keyProbe) inRange(row []types.Value, rid storage.RID) bool {
	return inKeyRange(p.ix.KeyFor(row, rid), p.lo, p.hi)
}

// withKeyCols extends a decode mask with ix's columns, so a resolved
// version can be range-checked; nil (decode everything) stays nil.
func withKeyCols(need []bool, ix *catalog.Index) []bool {
	if need == nil {
		return nil
	}
	out := append([]bool(nil), need...)
	for _, c := range ix.Cols {
		if c < len(out) {
			out[c] = true
		}
	}
	return out
}

// sortedUnique sorts rids in place and drops repeats.
func sortedUnique(rids []storage.RID) []storage.RID {
	if len(rids) < 2 {
		return rids
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Compare(rids[j]) < 0 })
	out := rids[:1]
	for _, rid := range rids[1:] {
		if rid != out[len(out)-1] {
			out = append(out, rid)
		}
	}
	return out
}
