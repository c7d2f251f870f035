// Package dfs is an HDFS-like replicated block store built on the
// deterministic simulator: a NameNode with a handler pool and a global
// namesystem lock, DataNodes with a BPServiceActor-style service loop
// (heartbeat + command processing + incremental block reports), a write
// pipeline with packet streaming and commit acks, lease/block recovery,
// an edit log, a block cache, background deletion, and (in V3 mode) an
// async event queue with erasure-coding-style block reconstruction.
//
// It is the reproduction substrate for the HDFS 2 / HDFS 3 rows of the
// paper's evaluation: the self-sustaining cascading failures of Table 3
// are seeded as mechanistic feedback loops (unthrottled IBR retries,
// recovery re-enqueueing, staleness-triggered re-replication) rather than
// scripted outcomes, so CSnake must actually discover them by stitching
// causal edges across workloads.
package dfs

import (
	"time"

	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
)

// Config selects cluster topology, timeout tuning (the paper reduces
// system timeouts to 10-20s to sensitise the system to injected load),
// and feature toggles that differ across workloads.
type Config struct {
	// V3 enables the async event queue and block reconstruction paths.
	V3 bool

	DataNodes   int // cluster size (default 3)
	Replication int // pipeline width (default 3)
	NNHandlers  int // NameNode RPC handler pool size (default 2)

	HBInterval time.Duration // heartbeat period (default 1s)
	StaleAfter time.Duration // staleness threshold (default 10s)
	DeadAfter  time.Duration // death threshold (default 25s)
	RPCTimeout time.Duration // DN->NN RPC timeout (default 10s)
	AckTimeout time.Duration // pipeline commit-ack deadline (default 4s)

	// IBRInterval throttles incremental block reports; zero sends them
	// with every heartbeat (throttling off).
	IBRInterval time.Duration

	// LeaseRecovery enables the NameNode recovery scanner.
	LeaseRecovery bool

	// PreloadBlocks seeds this many finalized blocks per DataNode before
	// the workload starts (drives report sizes, Table 3 HDFS2-6's 5000
	// blocks vs 8 blocks conditions).
	PreloadBlocks int

	// CacheCapacity bounds the DN block cache; small values force
	// eviction churn. Zero disables the cache manager.
	CacheCapacity int

	// ClientRetries is how many times a writer rebuilds a failed
	// pipeline before surfacing an error.
	ClientRetries int

	// IBRBatch caps report entries per IBR RPC (default 64).
	IBRBatch int
}

func (c Config) withDefaults() Config {
	if c.DataNodes == 0 {
		c.DataNodes = 3
	}
	if c.Replication == 0 {
		c.Replication = 3
	}
	if c.Replication > c.DataNodes {
		c.Replication = c.DataNodes
	}
	if c.NNHandlers == 0 {
		c.NNHandlers = 2
	}
	if c.HBInterval == 0 {
		c.HBInterval = time.Second
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 10 * time.Second
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 25 * time.Second
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 4 * time.Second
	}
	if c.IBRBatch == 0 {
		c.IBRBatch = 64
	}
	return c
}

// Cost model constants: the per-operation virtual CPU/disk costs that turn
// queue lengths into latency. They are sized so profile runs stay well
// inside every timeout while injected delays (100ms-8s per loop
// iteration) can push marginal paths across thresholds.
const (
	ibrEntryCost      = 2 * time.Millisecond   // NN work per IBR entry
	fbrEntryCost      = 500 * time.Microsecond // NN work per FBR entry
	editFlushCost     = time.Millisecond       // NN work per edit flushed
	editFlushPeriod   = 500 * time.Millisecond
	recoveryScanGap   = time.Second // recovery scanner period
	recoveryTaskCost  = 300 * time.Millisecond
	recoveryDeadline  = 6 * time.Second        // per-task completion deadline
	recoveryExecCost  = 300 * time.Millisecond // salvage pass for a partial replica
	recoveryFastCost  = 100 * time.Millisecond // finalize pass for a valid replica
	recoveryLeaseHold = 4 * time.Second        // dangling lease left by a failed attempt
	replScanGap       = time.Second            // replication monitor period
	replCopyCost      = 200 * time.Millisecond
	diskWriteCost     = 50 * time.Millisecond // per pipeline packet
	diskReadCost      = 40 * time.Millisecond
	diskWaitDeadline  = 2 * time.Second // write's patience for the disk lock
	deletionCost      = 80 * time.Millisecond
	evictCost         = 60 * time.Millisecond
	packetsPerBlock   = 4
	readTimeout       = 2 * time.Second
	commitRetryGap    = 200 * time.Millisecond
	reconstructCost   = 1200 * time.Millisecond
	reconstructWait   = 8 * time.Second // NN re-dispatch threshold (V3)
	eventQueueCap     = 64              // V3 event queue capacity
)

// Cluster wires a NameNode, DataNodes, and shared injection runtime.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	rt  *inject.Runtime

	nn  *nameNode
	dns []*dataNode
}

// NewCluster builds and starts a dfs cluster inside the run context.
func NewCluster(ctx *sysreg.RunContext, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, eng: ctx.Engine, rt: ctx.RT}
	c.nn = newNameNode(c)
	for i := 0; i < cfg.DataNodes; i++ {
		c.dns = append(c.dns, newDataNode(c, i))
	}
	c.nn.start()
	for _, dn := range c.dns {
		dn.start()
	}
	return c
}

// DN returns the i-th DataNode's name.
func (c *Cluster) DN(i int) string { return c.dns[i].node }
