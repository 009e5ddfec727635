package mvcc

import (
	"bytes"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
)

// entry is one write to a row: who made it and the bytes the row held
// immediately before (nil if the row did not exist). The store owns
// pre — callers must hand over bytes that nothing else mutates. keys
// are pre's index keys as the store's KeyFunc computed them (keys[i]
// under the table's i-th index); unkeyed marks a pre-image the KeyFunc
// could not key.
type entry struct {
	writer  *Txn
	pre     []byte
	keys    [][]byte
	unkeyed bool
}

// KeyFunc computes the index keys of a pre-image of rid: keys[i] is
// its key under the table's i-th index. ok=false means pre could not
// be keyed (it does not decode); such an entry is returned by every
// key lookup, so the reader's own decode surfaces the error instead of
// the row silently going missing.
type KeyFunc func(rid storage.RID, pre []byte) (keys [][]byte, ok bool)

// VersionStore holds the version chains of one table, keyed by RID.
// A chain's entries run oldest to newest; the newest bytes of the row
// live on the heap page itself. Reading a row for a snapshot walks the
// chain newest-first: stop at the first visible writer (the current
// bytes are theirs), otherwise step back to that entry's pre-image.
//
// Every pre-image is also filed by its index keys: one ordered
// (key, RID) list per index, so a snapshot's index probe finds the
// chained rows whose old versions fall in its key range without
// walking every chain. RecordWrite keys an entry once, through the
// KeyFunc the table installed; PopWrite and GC unfile entries from the
// keys they stored, so neither ever decodes a row; Rekey refiles every
// live entry after the table's index set changes.
//
// Mutating calls happen while the caller holds the table's latch
// exclusively (the apply phase of a DML statement, its undo, or index
// DDL); reads run under at least the shared latch. GC runs from
// committing sessions without the latch, but only ever removes
// entries. WaitCheckWrites is the one latch-free entry point — it
// only inspects chains and parks, so the internal mutex alone keeps it
// coherent against concurrent appliers.
type VersionStore struct {
	mu     sync.Mutex
	mgr    *Manager
	chains map[storage.RID][]entry

	keyFn   KeyFunc
	keyed   []keyIndex          // per index: (pre-image key, RID)
	unkeyed map[storage.RID]int // entries whose pre-image has no keys

	// signal wakes conflict waiters parked on an aborted-but-not-yet-
	// undone entry: PopWrite and GC close it (close-and-renew) whenever
	// they remove entries. Lazily allocated — nil while nobody waits.
	signal chan struct{}
}

// NewStore returns an empty store whose pre-images keyFn keys for
// index lookups (nil: no index lookups). mgr may be nil in tests; then
// no automatic GC registration happens.
func NewStore(mgr *Manager, keyFn KeyFunc) *VersionStore {
	return &VersionStore{mgr: mgr, keyFn: keyFn, chains: make(map[storage.RID][]entry)}
}

// keysOf keys a pre-image; a nil pre-image (an insert) has no keys.
func (s *VersionStore) keysOf(rid storage.RID, pre []byte) ([][]byte, bool) {
	if pre == nil || s.keyFn == nil {
		return nil, true
	}
	return s.keyFn(rid, pre)
}

// fileLocked adds (add) or removes e's keys in the per-index lists.
// Called with s.mu held.
func (s *VersionStore) fileLocked(rid storage.RID, e *entry, add bool) {
	if e.unkeyed {
		if add {
			if s.unkeyed == nil {
				s.unkeyed = make(map[storage.RID]int)
			}
			s.unkeyed[rid]++
		} else if s.unkeyed[rid]--; s.unkeyed[rid] <= 0 {
			delete(s.unkeyed, rid)
		}
		return
	}
	for i, k := range e.keys {
		if add {
			for len(s.keyed) <= i {
				s.keyed = append(s.keyed, keyIndex{})
			}
			s.keyed[i].add(k, rid)
		} else if i < len(s.keyed) {
			s.keyed[i].remove(k, rid)
		}
	}
}

// HasVersions reports whether any chain exists. Statements use it to
// skip the versioned read path entirely when no transaction has
// in-flight or recently committed writes on the table.
func (s *VersionStore) HasVersions() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.chains) > 0
}

// HasChain reports whether rid has a version chain.
func (s *VersionStore) HasChain(rid storage.RID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chains[rid]
	return ok
}

// Pinned reports whether rid's heap slot must not be reused by a fresh
// insert. Any chain pins its slot: reusing it would splice an
// unrelated row into the middle of a version chain.
func (s *VersionStore) Pinned(rid storage.RID) bool { return s.HasChain(rid) }

// CheckWrite applies first-updater-wins: writing rid is allowed iff
// the newest version entry (if any) is visible to tx — tx's own write,
// or a commit at or before tx's snapshot. Everything else (active
// writer, aborted-but-not-yet-undone writer, commit after tx began)
// is ErrWriteConflict.
func (s *VersionStore) CheckWrite(tx *Txn, rid storage.RID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 {
		return nil
	}
	if !tx.Visible(ch[len(ch)-1].writer) {
		return ErrWriteConflict
	}
	return nil
}

// RecordWrite appends a version entry for tx's write to rid, taking
// ownership of pre. The caller has already passed CheckWrite (or the
// write is an insert into a fresh slot, which cannot conflict).
func (s *VersionStore) RecordWrite(tx *Txn, rid storage.RID, pre []byte) {
	keys, ok := s.keysOf(rid, pre)
	e := entry{writer: tx, pre: pre, keys: keys, unkeyed: !ok}
	s.mu.Lock()
	s.chains[rid] = append(s.chains[rid], e)
	s.fileLocked(rid, &e, true)
	s.mu.Unlock()
	if s.mgr != nil {
		s.mgr.markDirty(s)
	}
}

// NewestWriter returns the transaction behind the newest version entry
// of rid, or ok=false when rid has no chain.
func (s *VersionStore) NewestWriter(rid storage.RID) (*Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 {
		return nil, false
	}
	return ch[len(ch)-1].writer, true
}

// PopWrite removes the newest entry of rid's chain, which must belong
// to tx — the undo path for a rolled-back write.
func (s *VersionStore) PopWrite(tx *Txn, rid storage.RID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	if len(ch) == 0 || ch[len(ch)-1].writer != tx {
		return // already collected (aborted entries are GC-eligible)
	}
	s.fileLocked(rid, &ch[len(ch)-1], false)
	if len(ch) == 1 {
		delete(s.chains, rid)
	} else {
		s.chains[rid] = ch[:len(ch)-1]
	}
	s.bumpLocked()
}

// signalLocked returns the current waiter-wakeup channel, allocating
// it on first use. Called with s.mu held.
func (s *VersionStore) signalLocked() <-chan struct{} {
	if s.signal == nil {
		s.signal = make(chan struct{})
	}
	return s.signal
}

// bumpLocked wakes every waiter parked on the store by closing the
// signal channel and renewing it lazily. Called with s.mu held by any
// path that removes chain entries.
func (s *VersionStore) bumpLocked() {
	if s.signal != nil {
		close(s.signal)
		s.signal = nil
	}
}

// WaitCheckWrites is first-updater-wins with bounded wait-then-abort:
// for each rid it checks the newest chain entry like CheckWrite, but
// when the blocking holder may still release the row — it is active
// (its fate is undecided) or aborted with its undo still pending (the
// entry is about to be popped) — the caller parks until the holder
// resolves or the shared budget expires. Holders that committed after
// tx's snapshot, or that hold a reserved commit timestamp (issued
// after every live snapshot, so if it publishes it is certainly too
// new), conflict immediately: no amount of waiting changes the
// outcome. The caller holds no table latch; the apply phase rechecks
// under the exclusive latch via the mutators' own CheckWrite calls, so
// a holder that slips in after this returns is still caught.
func (s *VersionStore) WaitCheckWrites(tx *Txn, rids []storage.RID, budget time.Duration) error {
	if s.mgr == nil {
		for _, rid := range rids {
			if err := s.CheckWrite(tx, rid); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		timer  *time.Timer
		parked time.Time
	)
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		if !parked.IsZero() {
			s.mgr.rowWaitNanos.Add(time.Since(parked).Nanoseconds())
		}
	}()
	for _, rid := range rids {
		for {
			s.mu.Lock()
			ch := s.chains[rid]
			if len(ch) == 0 || tx.Visible(ch[len(ch)-1].writer) {
				s.mu.Unlock()
				break
			}
			holder := ch[len(ch)-1].writer
			word := holder.word.Load()
			if (word != 0 && word != abortedWord) || holder.Reserved() {
				// Committed after tx began, or certain to if its sync
				// succeeds: waiting cannot clear this conflict.
				s.mu.Unlock()
				s.mgr.immediateConflicts.Add(1)
				return ErrWriteConflict
			}
			var wake <-chan struct{}
			if word == abortedWord {
				wake = s.signalLocked() // undo pop is imminent
			} else {
				wake = holder.done // active: settled at publish/abort
			}
			s.mu.Unlock()
			if budget <= 0 {
				s.mgr.immediateConflicts.Add(1)
				return ErrWriteConflict
			}
			if timer == nil {
				// One timer with the full budget, shared across every rid:
				// the statement's total parked time is bounded, not each
				// row's. timer.C is consumed at most once — a timeout
				// returns immediately below.
				timer = time.NewTimer(budget)
				parked = time.Now()
				s.mgr.rowWaits.Add(1)
			}
			select {
			case <-wake:
				// Re-check the chain: the wake may be for another rid's
				// entry, or the holder may have resolved against us.
			case <-timer.C:
				s.mgr.rowWaitTimeouts.Add(1)
				return ErrWriteConflict
			}
		}
	}
	if !parked.IsZero() {
		s.mgr.rowWaitRescues.Add(1)
	}
	return nil
}

// Resolve returns the bytes of rid visible to reader, given cur — the
// current heap bytes (nil if the slot is dead). The second result is
// false when no version is visible (the row does not exist in the
// reader's snapshot). The returned bytes may alias cur or an immutable
// store-owned pre-image.
func (s *VersionStore) Resolve(reader *Txn, rid storage.RID, cur []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[rid]
	for i := len(ch) - 1; i >= 0; i-- {
		if reader.Visible(ch[i].writer) {
			break
		}
		cur = ch[i].pre
	}
	return cur, cur != nil
}

// RIDs returns every chained RID in (page, slot) order, for
// deterministic enumeration of rows whose visible version may differ
// from (or be missing from) the physical heap and indexes.
func (s *VersionStore) RIDs() []storage.RID {
	s.mu.Lock()
	out := make([]storage.RID, 0, len(s.chains))
	for rid := range s.chains {
		out = append(out, rid)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// PreKeyRIDs appends to dst every RID holding a live pre-image whose
// key under the table's ix-th index lies in [lo, hi) (nil bounds are
// open), plus every RID holding a pre-image that could not be keyed.
// The result is unordered and may repeat a RID. Together with the
// RIDs whose current bytes the index holds in range, these are the
// only rows whose snapshot-visible version can carry a key in range.
func (s *VersionStore) PreKeyRIDs(ix int, lo, hi []byte, dst []storage.RID) []storage.RID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix >= 0 && ix < len(s.keyed) {
		s.keyed[ix].scan(lo, hi, func(_ []byte, rid storage.RID) bool {
			dst = append(dst, rid)
			return true
		})
	}
	for rid := range s.unkeyed {
		dst = append(dst, rid)
	}
	return dst
}

// ShadowedKey reports whether a transaction other than tx that has not
// committed (active, or aborted with its undo still pending) wrote a
// pre-image whose key under the table's ix-th index is exactly key.
// The key is then physically absent from the index but would come
// back if that writer rolled back, so unique checks must treat it as
// taken. A pre-image that could not be keyed counts as shadowing: a
// retryable conflict is the safe answer when the key is unknown.
func (s *VersionStore) ShadowedKey(tx *Txn, ix int, key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	foreign := func(e *entry) bool {
		return e.pre != nil && e.writer != tx && !e.writer.Committed()
	}
	found := false
	if ix >= 0 && ix < len(s.keyed) {
		s.keyed[ix].scan(key, nil, func(k []byte, rid storage.RID) bool {
			if !bytes.Equal(k, key) {
				return false
			}
			for i := range s.chains[rid] {
				e := &s.chains[rid][i]
				if foreign(e) && !e.unkeyed && ix < len(e.keys) && bytes.Equal(e.keys[ix], key) {
					found = true
					return false
				}
			}
			return true
		})
	}
	for rid := range s.unkeyed {
		for i := range s.chains[rid] {
			if e := &s.chains[rid][i]; e.unkeyed && foreign(e) {
				return true
			}
		}
	}
	return found
}

// Rekey recomputes every live pre-image's keys through the KeyFunc and
// refiles them. The table calls it, under its exclusive latch, after
// its index set changed (CREATE INDEX, a replica adopting one, DROP
// INDEX), so lookups by index position see the new set. The KeyFunc
// runs under the store mutex, so a concurrent GC never unfiles an
// entry by keys it was not filed under; it must not call back into the
// store.
func (s *VersionStore) Rekey() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keyed, s.unkeyed = nil, nil
	for rid, ch := range s.chains {
		for i := range ch {
			e := &ch[i]
			if e.pre == nil {
				continue
			}
			keys, ok := s.keysOf(rid, e.pre)
			e.keys, e.unkeyed = keys, !ok
			s.fileLocked(rid, e, true)
		}
	}
}

// GC drops entries no snapshot can need: from the oldest end of each
// chain, remove entries whose writer aborted or committed at or before
// horizon (the oldest active snapshot). It stops at the first entry
// that must stay — chain order guarantees nothing newer is collectable
// either. Returns true when the store is left empty.
func (s *VersionStore) GC(horizon uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for rid, ch := range s.chains {
		i := 0
		for i < len(ch) {
			w := ch[i].writer.word.Load()
			if w == abortedWord || (w != 0 && w <= horizon) {
				s.fileLocked(rid, &ch[i], false)
				i++
				continue
			}
			break
		}
		switch {
		case i == len(ch):
			delete(s.chains, rid)
			changed = true
		case i > 0:
			s.chains[rid] = append([]entry(nil), ch[i:]...)
			changed = true
		}
	}
	if changed {
		s.bumpLocked()
	}
	return len(s.chains) == 0
}
