package metastore

import (
	"time"

	"repro/internal/faults"
	"repro/internal/systems/sysreg"
)

type sysImpl struct{}

// New returns the Raft-style metadata store target system.
func New() sysreg.System { return sysImpl{} }

func init() { sysreg.Register("MetaStore", New, "metastore", "raft") }

func (sysImpl) Name() string             { return "MetaStore" }
func (sysImpl) Points() []faults.Point   { return points() }
func (sysImpl) Nests() []faults.LoopNest { return nests() }
func (sysImpl) SourceDirs() []string     { return []string{"internal/systems/metastore"} }

func wl(name, desc string, horizon time.Duration, cfg Config, scenario func(c *Cluster)) sysreg.Workload {
	return sysreg.Workload{
		Name: name, Desc: desc, Horizon: horizon,
		Run: func(ctx *sysreg.RunContext) {
			c := NewCluster(ctx, cfg)
			scenario(c)
		},
	}
}

func (sysImpl) Workloads() []sysreg.Workload {
	return []sysreg.Workload{
		wl("steady_commits", "steady proposal stream on three replicas", 30*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnProposer("c1", 60, 4, 150*time.Millisecond, 0)
			}),
		wl("propose_heavy", "saturating proposal load", 40*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnProposer("c1", 80, 6, 100*time.Millisecond, 0)
				c.SpawnProposer("c2", 80, 6, 120*time.Millisecond, 300*time.Millisecond)
				c.SpawnProposer("c3", 70, 5, 130*time.Millisecond, 600*time.Millisecond)
			}),
		wl("slow_follower_catchup", "a follower repeatedly pauses and needs entry catch-up (RAFT-1 t1)", 45*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnProposer("c1", 90, 10, 110*time.Millisecond, 0)
				c.SpawnProposer("c2", 90, 10, 130*time.Millisecond, 200*time.Millisecond)
				c.SpawnPauser("churn", 2, 3*time.Second, 1800*time.Millisecond, 9*time.Second, 3)
			}),
		wl("leader_transfer", "planned leadership transfers under steady load (RAFT-1 t2)", 40*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnProposer("c1", 80, 6, 130*time.Millisecond, 0)
				c.SpawnProposer("c2", 70, 5, 150*time.Millisecond, 300*time.Millisecond)
				c.SpawnTransferLoop("admin", 5*time.Second, 7*time.Second, 5)
			}),
		wl("cold_start", "leaderless boot: the first election happens naturally", 35*time.Second,
			Config{ColdStart: true},
			func(c *Cluster) {
				c.SpawnProposer("c1", 30, 3, 200*time.Millisecond, 6*time.Second)
			}),
		wl("compaction_catchup", "compaction racing a pausing follower's catch-up (RAFT-2 t1)", 60*time.Second,
			Config{Compaction: true, CompactKeep: 100, SnapLag: 40},
			func(c *Cluster) {
				c.SpawnProposer("c1", 140, 10, 140*time.Millisecond, 0)
				c.SpawnProposer("c2", 140, 10, 160*time.Millisecond, 250*time.Millisecond)
				c.SpawnPauser("churn", 2, 4*time.Second, 1800*time.Millisecond, 12*time.Second, 3)
			}),
		wl("snapshot_heavy", "five replicas, two pausing followers, aggressive compaction", 60*time.Second,
			Config{Nodes: 5, Compaction: true, CompactKeep: 160, SnapLag: 45},
			func(c *Cluster) {
				c.SpawnProposer("c1", 120, 8, 130*time.Millisecond, 0)
				c.SpawnProposer("c2", 120, 8, 150*time.Millisecond, 300*time.Millisecond)
				c.SpawnProposer("c3", 100, 6, 170*time.Millisecond, 600*time.Millisecond)
				c.SpawnPauser("churn-a", 3, 4*time.Second, 1800*time.Millisecond, 14*time.Second, 2)
				c.SpawnPauser("churn-b", 4, 9*time.Second, 1800*time.Millisecond, 14*time.Second, 2)
			}),
		wl("membership_churn", "a member leaves permanently and another pauses (5 replicas)", 45*time.Second,
			Config{Nodes: 5},
			func(c *Cluster) {
				c.SpawnProposer("c1", 90, 5, 130*time.Millisecond, 0)
				c.SpawnProposer("c2", 80, 4, 150*time.Millisecond, 400*time.Millisecond)
				c.CrashMember(4, 8*time.Second)
				c.SpawnPauser("churn", 3, 14*time.Second, 1800*time.Millisecond, 10*time.Second, 1)
			}),
		wl("quiet_baseline", "near-idle cluster", 20*time.Second,
			Config{},
			func(c *Cluster) {
				c.SpawnProposer("c1", 8, 2, 1500*time.Millisecond, 0)
			}),
	}
}

func (sysImpl) Bugs() []sysreg.Bug {
	return []sysreg.Bug{
		{
			ID: "RAFT-1", JIRA: "MetaStore#raft-election-loop", Title: "Leader election",
			CoreFaults: []faults.ID{PtElectionLoop, PtHBFresh},
			Delays:     1, Negations: 1,
		},
		{
			ID: "RAFT-2", JIRA: "MetaStore#snapshot-storm", Title: "Snapshot transfer",
			CoreFaults: []faults.ID{PtSnapSendLoop, PtLogAvail},
			Delays:     1, Negations: 1,
		},
	}
}
