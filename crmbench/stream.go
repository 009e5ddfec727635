package main

import (
	"math/rand"
	"sort"

	"repro/internal/testbed"
)

// A stream deals one client's actions: cards from Figure 6 decks,
// reshuffled from the client's own seeded generator, each bound to a
// tenant. The client rotates through its tenants in turns of a fixed
// number of actions. Clients of one run own disjoint tenant sets, so
// the shared testbed.Workload's per-(tenant, table) insert-ID counters
// are touched by one client only and a client's statement stream is a
// function of (seed, client) alone, however the clients interleave.
type stream struct {
	w       *testbed.Workload
	rng     *rand.Rand
	deck    []testbed.ActionClass
	pos     int
	tenants []int // 0-based tenant indexes, visited in order
	turn    int   // actions per tenant turn
	only    map[testbed.ActionClass]bool
	dealt   int
}

// newStream seeds client's stream. only, when non-nil, keeps just the
// cards of those classes (the writer and reader of report_under_writes
// split the deck between them); the rest of each deck is skipped.
func newStream(w *testbed.Workload, seed int64, client int, tenants []int, turn int, only []testbed.ActionClass) *stream {
	s := &stream{
		w:       w,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1)),
		tenants: tenants,
		turn:    turn,
	}
	if only != nil {
		s.only = make(map[testbed.ActionClass]bool, len(only))
		for _, c := range only {
			s.only[c] = true
		}
	}
	return s
}

// shuffledDeck returns a fresh Figure 6 deck shuffled by the stream's
// generator. testbed.BuildDeck fills its deck by ranging over a map, so
// the same seed can give a different deck; the stream sorts its cards
// back into one order before shuffling them itself.
func (s *stream) shuffledDeck() []testbed.ActionClass {
	deck := testbed.BuildDeck(rand.New(rand.NewSource(0)))
	sort.Slice(deck, func(i, j int) bool { return deck[i] < deck[j] })
	s.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// tenant is the tenant index the next action is dealt for.
func (s *stream) tenant() int { return s.tenants[(s.dealt/s.turn)%len(s.tenants)] }

// turnStart reports whether the next action opens a new tenant turn.
func (s *stream) turnStart() bool { return s.dealt%s.turn == 0 }

// next deals the next action. The Administrative card provisions a
// tenant, which is DDL the wire protocol does not carry; every workload
// deals it as a Select Light instead, so all three see the same mix.
func (s *stream) next() testbed.Action {
	for {
		if s.pos == len(s.deck) {
			s.deck = s.shuffledDeck()
			s.pos = 0
		}
		class := s.deck[s.pos]
		s.pos++
		if class == testbed.Admin {
			class = testbed.SelectLight
		}
		if s.only != nil && !s.only[class] {
			continue
		}
		t := s.tenant()
		s.dealt++
		return s.w.NextActionFor(s.rng, class, t, nil)
	}
}

// partition splits tenants 0..n-1 round-robin across k clients.
func partition(n, k int) [][]int {
	out := make([][]int, k)
	for t := 0; t < n; t++ {
		out[t%k] = append(out[t%k], t)
	}
	return out
}

// allTenants lists tenants 0..n-1.
func allTenants(n int) []int { return partition(n, 1)[0] }

var (
	writeClasses = []testbed.ActionClass{testbed.InsertLight, testbed.InsertHeavy, testbed.UpdateLight, testbed.UpdateHeavy}
	readClasses  = []testbed.ActionClass{testbed.SelectLight, testbed.SelectHeavy}
)
