package main

import (
	"fmt"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/testbed"
)

// sizes fixes a workload's data set, caches and simulated device.
type sizes struct {
	Tenants     int           // tenant population
	Rows        int           // rows per tenant per logical table, loaded at set-up
	PoolBytes   int64         // engine memory budget (buffer pool plus table meta-data)
	ReadLatency time.Duration // simulated cost of one buffer-pool miss, set after loading
	SyncLatency time.Duration // simulated cost of one log sync
	Extensions  bool          // §7 tenant extensions on the Chunk Folding layout
	Turn        int           // actions per tenant turn
}

// bed is one provisioned system under test: the engine, its layout,
// the statement generator, and (for wire workloads) a server on a
// loopback port.
type bed struct {
	db       *engine.DB
	layout   core.Layout
	mapper   *core.Mapper // in-process, uncached, autocommit
	workload *testbed.Workload
	srv      *server.Server
	addr     string
	conns    []*client.Conn // dialed during set-up, handed to the clients

	loadedBytes int64 // data and index pages right after the load
}

// provision builds the CRM testbed the way testbed.Setup does (same
// schema, tenants, extension assignment and data generator) but with
// the benchmark's own engine configuration, then — for wire workloads —
// starts a server on a loopback port.
func provision(z sizes, seed int64, wire bool) (*bed, error) {
	schema := testbed.MultiInstanceSchema(1, z.Extensions)
	// The flush policy of every run: WAL on, group commit on, default
	// checkpoint interval, fixed simulated sync latency. The read latency
	// is set once the load is done, so only the measured traffic pays it.
	db := engine.Open(engine.Config{MemoryBytes: z.PoolBytes, SyncLatency: z.SyncLatency})
	var layout core.Layout
	var err error
	if z.Extensions {
		layout, err = core.NewChunkFoldingLayout(schema, core.FoldingOptions{})
	} else {
		layout, err = core.NewBasicLayout(schema)
	}
	if err != nil {
		return nil, err
	}
	tenants := make([]*core.Tenant, z.Tenants)
	for i := range tenants {
		tenants[i] = &core.Tenant{ID: int64(i + 1)}
		// Half the tenants extend their schema, alternating between the
		// two vertical extensions, as testbed.Setup assigns them.
		if z.Extensions && i%100 < 50 {
			if i%2 == 0 {
				tenants[i].Extensions = []string{"HealthcareAccount"}
			} else {
				tenants[i].Extensions = []string{"AutomotiveAccount", "RegulatedCase"}
			}
		}
	}
	if err := layout.Create(db, tenants); err != nil {
		return nil, err
	}
	b := &bed{
		db:       db,
		layout:   layout,
		mapper:   core.NewMapper(db, layout),
		workload: testbed.NewWorkload(z.Tenants, 1, z.Rows),
	}
	b.workload.SetTenants(tenants)
	for i := 0; i < z.Tenants; i++ {
		if err := b.workload.LoadTenant(b.mapper, i, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	b.loadedBytes = int64(db.Disk().NumPages()) * int64(db.Disk().PageSize())
	db.Disk().ReadLatency = z.ReadLatency
	if !wire {
		return b, nil
	}
	b.srv, err = server.New(server.Config{DB: db, Layout: layout})
	if err != nil {
		return nil, err
	}
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return nil, err
	}
	b.addr = addr.String()
	return b, nil
}

// dial opens one connection authenticated as tenant index t.
func dial(addr string, t int) (*client.Conn, error) {
	c, err := client.Dial(client.Config{Addr: addr, Tenant: int64(t + 1), Token: "bench"})
	if err != nil {
		return nil, fmt.Errorf("dial tenant %d: %w", t+1, err)
	}
	return c, nil
}

// close releases the server and any connections still held by the bed.
func (b *bed) close() {
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
	if b.srv != nil {
		b.srv.Close()
	}
}
