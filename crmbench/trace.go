package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call the benchmark made into a layer's public
// API. Spans of one action share Action; Parent indexes the enclosing
// span in the same tracer (-1 for an action's root).
type span struct {
	Action int64  `json:"action"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced window opened
	End    int64  `json:"end_ns"`
}

// tracer records one client's spans in memory. A nil *tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	client int
	epoch  time.Time
	action int64
	spans  []span
}

func newTracer(client int, epoch time.Time) *tracer {
	return &tracer{client: client, epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// root opens a new action's root span.
func (t *tracer) root(name string) int {
	if t == nil {
		return -1
	}
	t.action++
	return t.begin(name, -1)
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Action: int64(t.client)<<40 | t.action,
		Name:   name,
		Parent: parent,
		Start:  time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch).Nanoseconds()
}

// spanTotals sums, per span name, the spans' durations and their self
// time: the duration minus the part of it the span's children cover.
type spanTotal struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

func spanTotals(tracers []*tracer) map[string]*spanTotal {
	out := map[string]*spanTotal{}
	for _, t := range tracers {
		children := make(map[int][][2]int64)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		for i, s := range t.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanTotal{}
				out[s.Name] = st
			}
			d := s.End - s.Start
			st.Count++
			st.Total += time.Duration(d)
			st.Self += time.Duration(d - covered(children[i], s.Start, s.End))
		}
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, r := range iv {
		a, b := max(r[0], lo), min(r[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as one JSON line to path, once the run
// has ended.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
