package testbed

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

func TestCRMSchemaShape(t *testing.T) {
	s := CRMSchema("")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Tables) != 10 {
		t.Fatalf("tables: %d", len(s.Tables))
	}
	for _, tab := range s.Tables {
		if len(tab.Columns) != 20 {
			t.Errorf("%s has %d columns, want 20", tab.Name, len(tab.Columns))
		}
		if tab.Key != "Id" {
			t.Errorf("%s key: %s", tab.Name, tab.Key)
		}
	}
	// DAG structure: every parent reference resolves.
	for child, parents := range crmParents {
		for _, p := range parents {
			if s.Table(p) == nil {
				t.Errorf("%s references missing parent %s", child, p)
			}
		}
	}
	// Multi-instance naming.
	ms := MultiInstanceSchema(3, true)
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ms.Tables) != 30 {
		t.Errorf("multi-instance tables: %d", len(ms.Tables))
	}
	if ms.Table("Account_i2") == nil {
		t.Error("instance suffixing broken")
	}
	if len(ms.Extensions) != 9 {
		t.Errorf("extensions: %d", len(ms.Extensions))
	}
}

func TestDeckDistribution(t *testing.T) {
	deck := BuildDeck(rand.New(rand.NewSource(1)))
	if len(deck) != 10000 {
		t.Fatalf("deck size: %d", len(deck))
	}
	counts := map[ActionClass]int{}
	for _, c := range deck {
		counts[c]++
	}
	for c, want := range deckCounts {
		if counts[ActionClass(c)] != want {
			t.Errorf("%s: %d cards, want %d", ActionClass(c), counts[ActionClass(c)], want)
		}
	}
}

// TestDeckDeterministic: two decks built from the same seed are equal,
// card for card.
func TestDeckDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := BuildDeck(rand.New(rand.NewSource(seed)))
		b := BuildDeck(rand.New(rand.NewSource(seed)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: card %d is %s in one deck and %s in the other", seed, i, a[i], b[i])
			}
		}
	}
}

func TestVariabilityConfig(t *testing.T) {
	// Table 1's rows, scaled to 10,000 tenants.
	cases := []struct {
		v         float64
		instances int
	}{
		{0.0, 1}, {0.5, 5000}, {0.65, 6500}, {0.8, 8000}, {1.0, 10000},
	}
	for _, c := range cases {
		if got := VariabilityConfig(c.v, 10000); got != c.instances {
			t.Errorf("variability %.2f: %d instances, want %d", c.v, got, c.instances)
		}
	}
}

func TestTenantInstanceDistribution(t *testing.T) {
	// §5: "with schema variability 0.65, the first 3,500 schema
	// instances have two tenants while the rest have only one."
	tenants, instances := 10000, 6500
	perInstance := map[int]int{}
	for i := 0; i < tenants; i++ {
		perInstance[TenantInstance(i, tenants, instances)]++
	}
	two, one := 0, 0
	for inst, n := range perInstance {
		switch n {
		case 2:
			two++
		case 1:
			one++
		default:
			t.Fatalf("instance %d has %d tenants", inst, n)
		}
	}
	if two != 3500 || one != 3000 {
		t.Errorf("distribution: %d doubles, %d singles", two, one)
	}
	// Degenerate cases.
	if TenantInstance(5, 10, 1) != 0 {
		t.Error("single instance must absorb everyone")
	}
	for i := 0; i < 10; i++ {
		if TenantInstance(i, 10, 10) != i {
			t.Error("full variability must give private instances")
		}
	}
}

func TestSmallRunBasicLayout(t *testing.T) {
	bed, err := Setup(Config{
		Tenants: 4, Instances: 2, RowsPerTable: 8,
		Sessions: 3, Actions: 120, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("errors: %d", res.Errors)
	}
	if res.TotalActions() != 120 {
		t.Errorf("actions: %d", res.TotalActions())
	}
	if len(res.Durations[SelectLight]) == 0 || len(res.Durations[UpdateLight]) == 0 {
		t.Error("light classes should have run")
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
	if res.Stats.Pool.TotalLogicalReads() == 0 {
		t.Error("stats not collected")
	}
}

func TestRunOverChunkFolding(t *testing.T) {
	bed, err := Setup(Config{
		Tenants: 3, RowsPerTable: 6, Sessions: 2, Actions: 60, Seed: 7,
		NewLayout: func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkFoldingLayout(s, core.FoldingOptions{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.TotalActions() != 60 {
		t.Errorf("errors=%d actions=%d", res.Errors, res.TotalActions())
	}
}

func TestBaselineCompliance(t *testing.T) {
	ref := &Result{}
	for i := 0; i < 100; i++ {
		ref.Durations[SelectLight] = append(ref.Durations[SelectLight], time.Duration(i+1)*time.Millisecond)
	}
	b := BaselineOf(ref)
	if b[SelectLight] != 95*time.Millisecond {
		t.Errorf("baseline: %v", b[SelectLight])
	}
	if got := ref.Compliance(b); got != 95 {
		t.Errorf("self compliance: %v", got)
	}
	slow := &Result{}
	for i := 0; i < 100; i++ {
		slow.Durations[SelectLight] = append(slow.Durations[SelectLight], time.Duration(i+51)*time.Millisecond)
	}
	if got := slow.Compliance(b); got != 45 {
		t.Errorf("slow compliance: %v", got)
	}
}

func TestWorkloadIDAllocation(t *testing.T) {
	w := NewWorkload(2, 1, 10)
	a := w.allocIDs(0, "Account", 3)
	b := w.allocIDs(0, "Account", 1)
	if a != 11 || b != 14 {
		t.Errorf("alloc: %d %d", a, b)
	}
	// Different tenants/tables are independent.
	if w.allocIDs(1, "Account", 1) != 11 || w.allocIDs(0, "Lead", 1) != 11 {
		t.Error("sequences must be per tenant+table")
	}
}

// TestRunWithExtensions exercises the §7 "more complete setting": an
// extension-bearing schema where half the tenants enable extensions and
// the workload touches extension columns, over Chunk Folding and over
// the Extension layout.
func TestRunWithExtensions(t *testing.T) {
	for name, mk := range map[string]func(s *core.Schema) (core.Layout, error){
		"chunkfold": func(s *core.Schema) (core.Layout, error) {
			return core.NewChunkFoldingLayout(s, core.FoldingOptions{})
		},
		"extension": func(s *core.Schema) (core.Layout, error) {
			return core.NewExtensionLayout(s)
		},
	} {
		bed, err := Setup(Config{
			Tenants: 4, Instances: 2, RowsPerTable: 6,
			Sessions: 2, Actions: 120, Seed: 11,
			NewLayout: mk, WithExtensions: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := bed.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Errors != 0 || res.TotalActions() != 120 {
			t.Errorf("%s: errors=%d actions=%d", name, res.Errors, res.TotalActions())
		}
		// An extension column is actually populated and queryable.
		rows, err := bed.Mapper.Query(1, "SELECT COUNT(*) FROM Account_i0 WHERE Hospital IS NOT NULL")
		if err != nil {
			t.Fatalf("%s: extension query: %v", name, err)
		}
		if rows.Data[0][0].Int == 0 {
			t.Errorf("%s: no extension data found", name)
		}
	}
}
