package kvstore

import (
	"time"

	"repro/internal/faults"
	"repro/internal/systems/sysreg"
)

type sysImpl struct{}

// New returns the HBase-like target system.
func New() sysreg.System { return sysImpl{} }

func init() { sysreg.Register("HBase", New, "hbase") }

func (sysImpl) Name() string             { return "HBase" }
func (sysImpl) Points() []faults.Point   { return points() }
func (sysImpl) Nests() []faults.LoopNest { return nil }
func (sysImpl) SourceDirs() []string     { return []string{"internal/systems/kvstore"} }

func wl(name, desc string, horizon time.Duration, cfg Config, scenario func(c *Cluster)) sysreg.Workload {
	return sysreg.Workload{
		Name:    name,
		Desc:    desc,
		Horizon: horizon,
		Run: func(ctx *sysreg.RunContext) {
			c := NewCluster(ctx, cfg)
			scenario(c)
		},
	}
}

func (sysImpl) Workloads() []sysreg.Workload {
	return []sysreg.Workload{
		wl("basic_put", "steady puts on three servers", 30*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnLoadClient("c1", 40, 3, 0)
			}),
		wl("create_clone_storm", "table create/clone storm on a loaded 3-RS cluster (§8.3.1 t1)", 50*time.Second,
			Config{Favored: true},
			func(c *Cluster) {
				c.SpawnTableCreator("adm", 8, 4, true, 400*time.Millisecond)
				c.SpawnLoadClient("c1", 60, 6, 120*time.Millisecond)
				c.SpawnLoadClient("c2", 60, 6, 140*time.Millisecond)
			}),
		wl("rs_fault_tolerance", "RS fault-tolerance test with the favored balancer and 3 nodes (§8.3.1 t2)", 40*time.Second,
			Config{Favored: true, RegionServers: 3},
			func(c *Cluster) {
				c.SpawnTableCreator("adm", 3, 3, false, 800*time.Millisecond)
				c.SpawnLoadClient("c1", 30, 3, 0)
			}),
		wl("balancer_long", "long balancer soak with the favored balancer (§8.3.1 t3)", 80*time.Second,
			Config{Favored: true, RegionServers: 3},
			func(c *Cluster) {
				c.SpawnTableCreator("adm", 6, 3, false, 1200*time.Millisecond)
				c.SpawnLoadClient("c1", 80, 4, 300*time.Millisecond)
			}),
		wl("balancer_5rs", "favored balancer with five servers (condition foil)", 50*time.Second,
			Config{Favored: true, RegionServers: 5},
			func(c *Cluster) {
				c.SpawnTableCreator("adm", 4, 3, false, time.Second)
				c.SpawnLoadClient("c1", 40, 3, 0)
			}),
		wl("wal_replay", "WAL replay reader racing an active writer", 50*time.Second,
			Config{Replay: true},
			func(c *Cluster) {
				c.SpawnLoadClient("c1", 70, 8, 120*time.Millisecond)
				c.SpawnLoadClient("c2", 70, 8, 150*time.Millisecond)
			}),
		wl("wal_quiet", "WAL replay over a quiescent log", 40*time.Second,
			Config{Replay: true},
			func(c *Cluster) {
				c.SpawnLoadClient("c1", 8, 2, 1500*time.Millisecond)
			}),
		wl("put_heavy", "saturating put load", 40*time.Second,
			Config{},
			func(c *Cluster) {
				for i := 0; i < 4; i++ {
					c.SpawnLoadClient(string(rune('a'+i))+"cli", 70, 8, 100*time.Millisecond)
				}
			}),
		wl("simple_balancer", "default balancer control workload", 40*time.Second,
			Config{Favored: false},
			func(c *Cluster) {
				c.SpawnTableCreator("adm", 5, 3, false, 800*time.Millisecond)
				c.SpawnLoadClient("c1", 40, 4, 0)
			}),
		wl("quiet_baseline", "near-idle cluster", 20*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnLoadClient("c1", 6, 1, time.Second)
			}),
	}
}

func (sysImpl) Bugs() []sysreg.Bug {
	return []sysreg.Bug{
		{
			ID: "HBASE-1", JIRA: "HBASE-29600", Title: "Write ahead log (WAL)",
			CoreFaults: []faults.ID{PtWALReplayLoop, PtWALComplete},
			Delays:     1, Negations: 1, SingleTest: true,
		},
		{
			ID: "HBASE-2", JIRA: "HBASE-29006", Title: "Region assignment",
			CoreFaults: []faults.ID{PtDeployLoop, PtAssignIOE},
			Delays:     1, Exceptions: 1, Negations: 1,
		},
	}
}
