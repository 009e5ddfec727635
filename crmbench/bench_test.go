package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/testbed"
)

// dealSQL deals n actions from each of clients streams over one shared
// workload, in the given interleaving, and returns each client's SQL.
func dealSQL(seed int64, clients, n int, roundRobin bool) [][]string {
	w := testbed.NewWorkload(8, 1, 16)
	parts := partition(8, clients)
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(w, seed, c, parts[c], 5, nil)
	}
	out := make([][]string, clients)
	take := func(c int) {
		a := streams[c].next()
		out[c] = append(out[c], strings.Join(append(a.Queries, a.Execs...), ";"))
	}
	if roundRobin {
		for i := 0; i < n; i++ {
			for c := range streams {
				take(c)
			}
		}
	} else {
		for c := clients - 1; c >= 0; c-- {
			for i := 0; i < n; i++ {
				take(c)
			}
		}
	}
	return out
}

func TestStreamDeterministicPerClient(t *testing.T) {
	a := dealSQL(7, 2, 400, true)
	b := dealSQL(7, 2, 400, false) // another interleaving of the clients
	for c := range a {
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("client %d action %d: %.200q vs %.200q", c, i, a[c][i], b[c][i])
			}
		}
	}
	c := dealSQL(8, 2, 400, true)
	for i := range a {
		if reflect.DeepEqual(a[i], c[i]) {
			t.Fatalf("client %d: seeds 7 and 8 dealt the same stream", i)
		}
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("both clients dealt the same stream")
	}
}

func TestStreamClassFilterAndTurns(t *testing.T) {
	w := testbed.NewWorkload(4, 1, 16)
	s := newStream(w, 1, 0, allTenants(4), 3, writeClasses)
	for i := 0; i < 60; i++ {
		wantTenant := (i / 3) % 4
		if got := s.tenant(); got != wantTenant {
			t.Fatalf("action %d dealt for tenant %d, want %d", i, got, wantTenant)
		}
		if a := s.next(); kindOf(a.Class) != kindWrite || len(a.Execs) == 0 {
			t.Fatalf("writer stream dealt %v", a.Class)
		}
	}
}

// tiny shrinks a workload so a whole run takes about a second.
func tiny(sp spec) spec {
	sp.Tenants, sp.Rows = 4, 8
	if sp.readerTurn > 0 {
		sp.readerTurn = 20
	}
	return sp
}

func TestSetupAndTeardownOutsideWindow(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			out, err := run(name, tiny(specs[name]), 3, 300*time.Millisecond, traced, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !out.res.Correct {
				t.Fatalf("%s traced=%v: correctness gate failed: %v", name, traced, out.gateErr)
			}
			p := out.phases
			if !(p.setupEnd.Before(p.windowStart) && p.windowStart.Before(p.windowEnd) && !p.teardownStart.Before(p.windowEnd)) {
				t.Fatalf("%s: phases out of order: %+v", name, p)
			}
			for i, r := range out.recs {
				if r.attempted == 0 {
					t.Fatalf("%s: client %d ran nothing in the window", name, i)
				}
				if r.first.Before(p.windowStart) || r.last.After(p.windowEnd) {
					t.Fatalf("%s: client %d timed an action outside the window", name, i)
				}
			}
		}
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("workloads %v in BENCHMARK.json, %v in the program", names, workloadNames())
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program prints %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if bf.EndToEnd[i].Name != m.name || bf.EndToEnd[i].Unit != m.unit {
			t.Fatalf("end_to_end[%d] is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Fatalf("per_layer[%d] is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}

	// A run prints exactly these names: end-to-end untraced, per-layer traced.
	for _, traced := range []bool{false, true} {
		out, err := run("crm_wire", tiny(specs["crm_wire"]), 1, 200*time.Millisecond, traced, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(out.res.Metrics) != len(want) {
			t.Fatalf("traced=%v: printed %d metrics, want %d", traced, len(out.res.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := out.res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Fatalf("traced=%v: metric %s missing or with unit %q", traced, m.name, v.Unit)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(iv, 8, 45); got != 7+10+5 {
		t.Fatalf("covered = %d, want 22", got)
	}
}
