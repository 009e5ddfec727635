package testbed

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/core"
)

// ActionClass enumerates the Figure 6 worker action classes.
type ActionClass int

// Action classes, with the card-deck share from Figure 6.
const (
	SelectLight ActionClass = iota
	SelectHeavy
	InsertLight
	InsertHeavy
	UpdateLight
	UpdateHeavy
	Admin
	numClasses
)

// ClassName returns the Figure 6 label.
func (c ActionClass) String() string {
	switch c {
	case SelectLight:
		return "Select Light"
	case SelectHeavy:
		return "Select Heavy"
	case InsertLight:
		return "Insert Light"
	case InsertHeavy:
		return "Insert Heavy"
	case UpdateLight:
		return "Update Light"
	case UpdateHeavy:
		return "Update Heavy"
	case Admin:
		return "Administrative"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// deckCounts is the Figure 6 distribution over a 10,000-card deck:
// 50%, 15%, 9.59%, 0.3%, 17.6%, 7.5%, 0.01%. An array, not a map, so
// BuildDeck fills the deck in one fixed class order.
var deckCounts = [numClasses]int{
	SelectLight: 5000,
	SelectHeavy: 1500,
	InsertLight: 959,
	InsertHeavy: 30,
	UpdateLight: 1760,
	UpdateHeavy: 750,
	Admin:       1,
}

// BuildDeck creates and shuffles one card deck (the Controller's
// TPC-C-style card deck, §4). The same generator state always deals
// the same deck.
func BuildDeck(r *rand.Rand) []ActionClass {
	deck := make([]ActionClass, 0, 10000)
	for c, n := range deckCounts {
		for i := 0; i < n; i++ {
			deck = append(deck, ActionClass(c))
		}
	}
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// industries, stages, statuses are the categorical domains of the
// generator.
var (
	industries = []string{"health", "auto", "retail", "finance", "energy", "telco", "media", "logistics"}
	stages     = []string{"prospect", "qualify", "propose", "close", "won", "lost"}
	statuses   = []string{"new", "open", "pending", "closed"}
)

// Workload generates the per-tenant SQL of the testbed actions. It
// tracks per-(tenant, table) entity-ID sequences so inserts never
// collide.
type Workload struct {
	instances int
	tenants   int
	rows      int // base rows per tenant per table

	mu     sync.Mutex
	nextID map[string]int64

	// tenantDefs, when set via SetTenants, makes the workload
	// extension-aware: inserts populate extension columns and the heavy
	// selects include extension reports (the paper's §7 plan of
	// "enhancing the testbed to include extension tables as well as
	// base tables").
	tenantDefs []*core.Tenant

	// batch sizes for the heavy actions (scaled-down defaults; the
	// paper used several hundred).
	InsertHeavyBatch int
	UpdateHeavyBatch int
}

// NewWorkload builds a workload generator for a testbed population.
func NewWorkload(tenants, instances, rowsPerTable int) *Workload {
	return &Workload{
		instances:        instances,
		tenants:          tenants,
		rows:             rowsPerTable,
		nextID:           map[string]int64{},
		InsertHeavyBatch: 50,
		UpdateHeavyBatch: 20,
	}
}

// SetTenants informs the workload of each tenant's extension set.
func (w *Workload) SetTenants(tns []*core.Tenant) { w.tenantDefs = tns }

// tenantHasExt reports whether a tenant (0-based index) enabled the
// given extension of its schema instance.
func (w *Workload) tenantHasExt(tenantIdx int, extBase string) bool {
	if w.tenantDefs == nil || tenantIdx >= len(w.tenantDefs) {
		return false
	}
	return w.tenantDefs[tenantIdx].HasExtension(extBase + w.suffixFor(tenantIdx))
}

// TenantInstance maps a tenant index (0-based) to its schema instance,
// distributing tenants "as evenly as possible among the schema
// instances" (§5): the first tenants%instances instances get one extra.
func TenantInstance(tenantIdx, tenants, instances int) int {
	if instances <= 1 {
		return 0
	}
	base := tenants / instances
	extra := tenants % instances
	cut := extra * (base + 1)
	if tenantIdx < cut {
		return tenantIdx / (base + 1)
	}
	return extra + (tenantIdx-cut)/base
}

// suffixFor returns the table suffix of a tenant's schema instance.
func (w *Workload) suffixFor(tenantIdx int) string {
	return InstanceSuffix(TenantInstance(tenantIdx, w.tenants, w.instances), w.instances)
}

// TableFor qualifies a base table name for a tenant.
func (w *Workload) TableFor(tenantIdx int, base string) string {
	return base + w.suffixFor(tenantIdx)
}

func (w *Workload) allocIDs(tenantIdx int, table string, n int64) int64 {
	key := fmt.Sprintf("%d/%s", tenantIdx, strings.ToLower(table))
	w.mu.Lock()
	defer w.mu.Unlock()
	id, ok := w.nextID[key]
	if !ok {
		id = int64(w.rows) + 1
	}
	w.nextID[key] = id + n
	return id
}

// insertColumns lists the generator-populated columns of a base table.
func insertColumns(base string) []string {
	cols := []string{"Id"}
	for _, p := range crmParents[base] {
		cols = append(cols, p+"Id")
	}
	switch base {
	case "Account":
		cols = append(cols, "Name", "Industry")
	case "Campaign":
		cols = append(cols, "Name", "StartDate")
	case "Lead":
		cols = append(cols, "Status")
	case "Opportunity":
		cols = append(cols, "Stage", "CloseDate")
	case "Asset":
		cols = append(cols, "SerialNo")
	case "Contact":
		cols = append(cols, "LastName", "FirstName")
	case "Case":
		cols = append(cols, "Status")
	case "Contract":
		cols = append(cols, "EndDate")
	case "LineItem":
		cols = append(cols, "Quantity")
	case "Product":
		cols = append(cols, "Sku")
	}
	return append(cols, "Attr00", "Attr01", "Attr02", "Attr03")
}

// insertColumnsFor extends the base column list with the tenant's
// extension columns.
func (w *Workload) insertColumnsFor(tenantIdx int, base string) []string {
	cols := insertColumns(base)
	if base == "Account" {
		if w.tenantHasExt(tenantIdx, "HealthcareAccount") {
			cols = append(cols, "Hospital", "Beds")
		}
		if w.tenantHasExt(tenantIdx, "AutomotiveAccount") {
			cols = append(cols, "Dealers")
		}
	}
	if base == "Case" && w.tenantHasExt(tenantIdx, "RegulatedCase") {
		cols = append(cols, "Regulator", "DueDate")
	}
	return cols
}

// valueFor renders a literal for one insert column.
func (w *Workload) valueFor(r *rand.Rand, base, col string, id int64) string {
	switch {
	case col == "Id":
		return fmt.Sprintf("%d", id)
	case strings.HasSuffix(col, "Id"): // foreign key
		return fmt.Sprintf("%d", 1+r.Intn(maxInt(w.rows, 1)))
	case col == "Name":
		return fmt.Sprintf("'%s-%d'", strings.ToLower(base), id)
	case col == "Industry":
		return "'" + industries[r.Intn(len(industries))] + "'"
	case col == "Stage":
		return "'" + stages[r.Intn(len(stages))] + "'"
	case col == "Status":
		return "'" + statuses[r.Intn(len(statuses))] + "'"
	case col == "SerialNo", col == "Sku":
		return fmt.Sprintf("'sn-%d-%d'", id, r.Intn(1000))
	case col == "LastName":
		return fmt.Sprintf("'last%d'", r.Intn(200))
	case col == "FirstName":
		return fmt.Sprintf("'first%d'", r.Intn(200))
	case col == "Hospital":
		return fmt.Sprintf("'hospital-%d'", r.Intn(20))
	case col == "Regulator":
		return fmt.Sprintf("'agency-%d'", r.Intn(5))
	case col == "Beds", col == "Dealers":
		return fmt.Sprintf("%d", r.Intn(500))
	case col == "StartDate", col == "CloseDate", col == "EndDate", col == "DueDate", col == "Attr02":
		return fmt.Sprintf("DATE '2008-%02d-%02d'", 1+r.Intn(12), 1+r.Intn(28))
	case col == "Quantity", col == "Attr01":
		return fmt.Sprintf("%d", r.Intn(1000))
	case col == "Attr03":
		return fmt.Sprintf("%0.2f", r.Float64()*1000)
	default: // Attr00 and other strings
		return fmt.Sprintf("'v%d'", r.Intn(10000))
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// InsertSQL builds a batched insert of n fresh entities into a base
// table for a tenant.
func (w *Workload) InsertSQL(r *rand.Rand, tenantIdx int, base string, n int) string {
	table := w.TableFor(tenantIdx, base)
	cols := w.insertColumnsFor(tenantIdx, base)
	first := w.allocIDs(tenantIdx, table, int64(n))
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s (%s) VALUES ", table, strings.Join(cols, ", "))
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, c := range cols {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(w.valueFor(r, base, c, first+int64(i)))
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Action is one dealt card bound to a tenant: a sequence of logical
// statements to run through the Mapper.
type Action struct {
	Class   ActionClass
	Tenant  int64
	Queries []string // SELECTs
	Execs   []string // DML
	// AddTenant is set for Admin actions: the new tenant to provision.
	AddTenant *core.Tenant
}

// NextAction deals one card for a uniformly random tenant (§4: "the
// Controller also randomly selects tenants, with an equal distribution,
// and assigns one to each card").
func (w *Workload) NextAction(r *rand.Rand, class ActionClass, adminSeq *int64) Action {
	return w.NextActionFor(r, class, r.Intn(w.tenants), adminSeq)
}

// NextActionFor deals one card for a specific tenant (0-based index).
// The network benchmark uses it to bind each connection to the tenant
// it authenticated as, mirroring how a SaaS client only ever issues
// statements for its own tenant.
func (w *Workload) NextActionFor(r *rand.Rand, class ActionClass, tenantIdx int, adminSeq *int64) Action {
	a := Action{Class: class, Tenant: int64(tenantIdx + 1)}
	base := CRMTables[r.Intn(len(CRMTables))]
	table := w.TableFor(tenantIdx, base)
	id := 1 + r.Intn(maxInt(w.rows, 1))

	switch class {
	case SelectLight:
		// Entity detail page: all attributes of a single entity.
		a.Queries = []string{fmt.Sprintf("SELECT * FROM %s WHERE Id = %d", table, id)}
	case SelectHeavy:
		// One of five fixed business-activity-monitoring queries with
		// aggregation and/or parent-child roll-up (§4.2).
		sfx := w.suffixFor(tenantIdx)
		variants := 5
		if w.tenantHasExt(tenantIdx, "HealthcareAccount") {
			variants = 6
		}
		switch r.Intn(variants) {
		case 5:
			// Extension report: roll-up over extension columns.
			a.Queries = []string{fmt.Sprintf(
				"SELECT Hospital, COUNT(*), SUM(Beds) FROM Account%s GROUP BY Hospital", sfx)}
		case 0:
			a.Queries = []string{fmt.Sprintf(
				"SELECT Industry, COUNT(*) FROM Account%s GROUP BY Industry", sfx)}
		case 1:
			a.Queries = []string{fmt.Sprintf(
				"SELECT a.Industry, COUNT(*) FROM Account%s a, Opportunity%s o WHERE o.AccountId = a.Id GROUP BY a.Industry", sfx, sfx)}
		case 2:
			a.Queries = []string{fmt.Sprintf(
				"SELECT Status, COUNT(*) FROM Case%s GROUP BY Status", sfx)}
		case 3:
			a.Queries = []string{fmt.Sprintf(
				"SELECT COUNT(*), SUM(Quantity) FROM LineItem%s WHERE Quantity > %d", sfx, r.Intn(500))}
		case 4:
			a.Queries = []string{fmt.Sprintf(
				"SELECT Stage, COUNT(*), SUM(Attr01) FROM Opportunity%s GROUP BY Stage ORDER BY Stage", sfx)}
		}
	case InsertLight:
		a.Execs = []string{w.InsertSQL(r, tenantIdx, base, 1)}
	case InsertHeavy:
		a.Execs = []string{w.InsertSQL(r, tenantIdx, base, w.InsertHeavyBatch)}
	case UpdateLight:
		// Small set selected by an indexed filter condition.
		sfx := w.suffixFor(tenantIdx)
		switch r.Intn(3) {
		case 0:
			a.Execs = []string{fmt.Sprintf(
				"UPDATE Account%s SET Name = 'upd-%d' WHERE Industry = '%s'",
				sfx, r.Intn(1e6), industries[r.Intn(len(industries))])}
		case 1:
			a.Execs = []string{fmt.Sprintf(
				"UPDATE Case%s SET Attr01 = %d WHERE Status = '%s'",
				sfx, r.Intn(1000), statuses[r.Intn(len(statuses))])}
		default:
			a.Execs = []string{fmt.Sprintf(
				"UPDATE %s SET Attr00 = 'w%d' WHERE Id = %d", table, r.Intn(1e6), id)}
		}
	case UpdateHeavy:
		// Several entities selected by entity ID via the primary key.
		for i := 0; i < w.UpdateHeavyBatch; i++ {
			a.Execs = append(a.Execs, fmt.Sprintf(
				"UPDATE %s SET Attr01 = Attr01 + 1 WHERE Id = %d",
				table, 1+r.Intn(maxInt(w.rows, 1))))
		}
	case Admin:
		// Add a brand-new tenant (schema-changing administrative task).
		*adminSeq++
		a.AddTenant = &core.Tenant{ID: int64(1000000 + *adminSeq)}
	}
	return a
}

// LoadTenant populates one tenant's dataset through the mapper: rows
// rows in each of the ten tables, in batches.
func (w *Workload) LoadTenant(m *core.Mapper, tenantIdx int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	const batch = 50
	for _, base := range CRMTables {
		table := w.TableFor(tenantIdx, base)
		cols := w.insertColumnsFor(tenantIdx, base)
		for done := 0; done < w.rows; {
			n := batch
			if w.rows-done < n {
				n = w.rows - done
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s (%s) VALUES ", table, strings.Join(cols, ", "))
			for i := 0; i < n; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("(")
				for j, c := range cols {
					if j > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(w.valueFor(r, base, c, int64(done+i+1)))
				}
				sb.WriteString(")")
			}
			if _, err := m.Exec(int64(tenantIdx+1), sb.String()); err != nil {
				return fmt.Errorf("load tenant %d table %s: %w", tenantIdx+1, table, err)
			}
			done += n
		}
	}
	return nil
}
