// Package kvstore is an HBase-like region store on the deterministic
// simulator: a Master with an assignment manager and a pluggable load
// balancer (including a FavoredStochastic-style balancer that needs three
// live RegionServers), RegionServers with a write-ahead log, memstore
// flushes, and a WAL replay path.
//
// It reproduces the two HBase rows of Table 3: the WAL premature-EOF
// replay loop (HBASE-1) and the §8.3.1 region-deployment-retry cascade
// (HBASE-2), both seeded as mechanistic feedback loops.
package kvstore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
)

// Injection/monitor points.
const (
	// Master loops.
	PtDeployLoop   faults.ID = "hbase.master.assign.deploy_loop"
	PtBalancerLoop faults.ID = "hbase.master.balancer.loop"
	PtProcWALLoop  faults.ID = "hbase.master.proc.wal_loop"
	PtInitLoop     faults.ID = "hbase.master.init_loop" // const-bound: filtered

	// RegionServer loops.
	PtWALSyncLoop   faults.ID = "hbase.rs.wal.sync_loop"
	PtWALReplayLoop faults.ID = "hbase.rs.wal.replay_loop"
	PtFlushLoop     faults.ID = "hbase.rs.flush_loop"
	PtOpenLoop      faults.ID = "hbase.rs.open_region_loop"
	PtPutLoop       faults.ID = "hbase.client.put_loop"

	// Exceptions.
	PtAssignIOE  faults.ID = "hbase.rs.assign.rpc_ioe"
	PtPutIOE     faults.ID = "hbase.rs.put_ioe"
	PtWALSyncIOE faults.ID = "hbase.rs.wal.sync_ioe" // libcall
	PtCloneIOE   faults.ID = "hbase.master.clone_ioe"
	PtClientIOE  faults.ID = "hbase.client.put_ioe"
	PtSecAuthExc faults.ID = "hbase.sec.auth_exc"  // filtered
	PtReflExc    faults.ID = "hbase.refl.load_exc" // filtered

	// Negations.
	PtWALComplete  faults.ID = "hbase.rs.wal.is_complete"
	PtCanPlace     faults.ID = "hbase.master.balancer.can_place_favored"
	PtRSAlive      faults.ID = "hbase.master.rs.is_alive"
	PtConfFavored  faults.ID = "hbase.conf.favored_enabled" // config-only: filtered
	PtUtilIsSorted faults.ID = "hbase.util.is_sorted"       // primitive-only: filtered
	PtTraceEnabled faults.ID = "hbase.log.trace_enabled"    // const return: filtered
)

func points() []faults.Point {
	sys := "HBase"
	return []faults.Point{
		{ID: PtDeployLoop, Kind: faults.Loop, System: sys, Func: "assignmentManager", BodySize: 70, HasIO: true, Desc: "region deployment loop"},
		{ID: PtBalancerLoop, Kind: faults.Loop, System: sys, Func: "runBalancer", BodySize: 45},
		{ID: PtProcWALLoop, Kind: faults.Loop, System: sys, Func: "procWAL", BodySize: 25, HasIO: true},
		{ID: PtInitLoop, Kind: faults.Loop, System: sys, Func: "initMaster", BodySize: 6, ConstBound: true},
		{ID: PtWALSyncLoop, Kind: faults.Loop, System: sys, Func: "walSync", BodySize: 30, HasIO: true},
		{ID: PtWALReplayLoop, Kind: faults.Loop, System: sys, Func: "walReplay", BodySize: 55, HasIO: true},
		{ID: PtFlushLoop, Kind: faults.Loop, System: sys, Func: "memstoreFlush", BodySize: 35, HasIO: true},
		{ID: PtOpenLoop, Kind: faults.Loop, System: sys, Func: "openRegion", BodySize: 40, HasIO: true},
		{ID: PtPutLoop, Kind: faults.Loop, System: sys, Func: "clientPut", BodySize: 30, HasIO: true},

		{ID: PtAssignIOE, Kind: faults.Throw, System: sys, Func: "assignmentManager", Desc: "region assignment RPC failed"},
		{ID: PtPutIOE, Kind: faults.Throw, System: sys, Func: "handlePut", Desc: "put rejected under load"},
		{ID: PtWALSyncIOE, Kind: faults.LibCall, System: sys, Func: "walSync", Category: faults.ExcLibrary},
		{ID: PtCloneIOE, Kind: faults.Throw, System: sys, Func: "cloneTable", Desc: "table clone failed"},
		{ID: PtClientIOE, Kind: faults.Throw, System: sys, Func: "clientPut", Desc: "put retries exhausted"},
		{ID: PtSecAuthExc, Kind: faults.Throw, System: sys, Func: "authenticate", Category: faults.ExcSecurity},
		{ID: PtReflExc, Kind: faults.Throw, System: sys, Func: "loadCoprocessor", Category: faults.ExcReflection},

		{ID: PtWALComplete, Kind: faults.Negation, System: sys, Func: "walReplay", Desc: "WAL trailer completeness check"},
		{ID: PtCanPlace, Kind: faults.Negation, System: sys, Func: "runBalancer", Desc: "canPlaceFavoredNodes"},
		{ID: PtRSAlive, Kind: faults.Negation, System: sys, Func: "serverMonitor", Desc: "RS liveness check"},
		{ID: PtConfFavored, Kind: faults.Negation, System: sys, Func: "favoredEnabled", ConfigOnly: true},
		{ID: PtUtilIsSorted, Kind: faults.Negation, System: sys, Func: "isSorted", PrimitiveOnly: true},
		{ID: PtTraceEnabled, Kind: faults.Negation, System: sys, Func: "traceEnabled", ConstReturn: true},
	}
}

// Config selects topology and features per workload.
type Config struct {
	RegionServers int  // default 3
	Favored       bool // use the FavoredStochastic-style balancer
	Replay        bool // run a WAL replay reader
	Regions       int  // initial regions per server (default 2)
	PutTimeout    time.Duration
	AssignTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RegionServers == 0 {
		c.RegionServers = 3
	}
	if c.Regions == 0 {
		c.Regions = 2
	}
	if c.PutTimeout == 0 {
		c.PutTimeout = 5 * time.Second
	}
	if c.AssignTimeout == 0 {
		c.AssignTimeout = 10 * time.Second
	}
	return c
}

const (
	putCost         = 20 * time.Millisecond
	openRegionCost  = 250 * time.Millisecond
	walAppendCost   = 2 * time.Millisecond
	walSyncCost     = 5 * time.Millisecond
	walSyncEvery    = 400 * time.Millisecond
	replayEntryGap  = 100 * time.Millisecond
	replayRetryGap  = 300 * time.Millisecond
	replayScanEvery = 3 * time.Second
	flushEvery      = 2 * time.Second
	flushCost       = 150 * time.Millisecond
	balanceEvery    = 2 * time.Second
	assignRetryGap  = 500 * time.Millisecond
)

// Cluster is one simulated HBase deployment.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	rt  *inject.Runtime

	master *master
	rss    []*regionServer
}

// NewCluster builds and starts the cluster.
func NewCluster(ctx *sysreg.RunContext, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, eng: ctx.Engine, rt: ctx.RT}
	c.master = newMaster(c)
	for i := 0; i < cfg.RegionServers; i++ {
		c.rss = append(c.rss, newRegionServer(c, i))
	}
	c.master.bootstrapRegions()
	c.master.start()
	for _, rs := range c.rss {
		rs.start()
	}
	return c
}

// --- Master ---

type assignment struct {
	region  string
	rs      string
	retries int
}

type master struct {
	c    *Cluster
	node string
	rpc  *sim.Mailbox

	regions   map[string]string // region -> RS (or "" when unassigned)
	excluded  map[string]bool   // RSes excluded from favored placement
	pending   []assignment
	pendSig   *sim.Mailbox
	balanceOK bool
}

func newMaster(c *Cluster) *master {
	m := &master{
		c: c, node: "master",
		regions:  make(map[string]string),
		excluded: make(map[string]bool),
	}
	m.rpc = c.eng.NewMailbox(m.node, "rpc")
	m.pendSig = c.eng.NewMailbox(m.node, "pending")
	return m
}

func (m *master) bootstrapRegions() {
	for i, rs := range m.c.rss {
		for r := 0; r < m.c.cfg.Regions; r++ {
			m.regions[fmt.Sprintf("region-%d-%d", i, r)] = rs.node
		}
	}
}

func (m *master) start() {
	m.c.eng.Spawn(m.node, "assignmentManager", m.assignmentManager)
	m.c.eng.Spawn(m.node, "balancer", m.balancerLoop)
	m.c.eng.Spawn(m.node, "rpcHandler", m.rpcHandler)
}

func (m *master) enqueue(p *sim.Proc, a assignment) {
	m.pending = append(m.pending, a)
	p.Send(m.pendSig, struct{}{})
}

// assignmentManager drives region deployment: the delayed task of the
// §8.3.1 case study. Failed assignments are retried indefinitely -- the
// seeded feedback.
func (m *master) assignmentManager(p *sim.Proc) {
	defer p.Enter("assignmentManager")()
	rt := m.c.rt
	for {
		p.RecvQ(m.pendSig)
		// Each drain is a batched deployment with one overall deadline:
		// a slow sub-deployment times out the whole batch, the batched-
		// RPC pattern of §4.3.
		batchDeadline := p.Now() + m.c.cfg.AssignTimeout
		for len(m.pending) > 0 {
			rt.Loop(p, PtDeployLoop)
			a := m.pending[0]
			m.pending = m.pending[1:]
			// Monitor point: the balancer mode is part of the activation
			// condition of every assignment fault (§6.2), so workloads
			// with different balancers must not be stitched together.
			rt.Branch(p, "hbase.assign.favored_mode", m.c.cfg.Favored)
			p.Work(10 * time.Millisecond)
			target := m.pickServer(p, a)
			if target == "" {
				// Balancer failure: blind retry after a pause.
				a.retries++
				p.SendAfter(assignRetryGap, m.pendSig, struct{}{})
				m.pending = append(m.pending, a)
				continue
			}
			rs := m.c.rsByName(target)
			var err error
			if p.Now() > batchDeadline {
				err = fmt.Errorf("hbase: assignment batch timed out")
			} else {
				_, err = p.Call(rs.rpc, openRegionMsg{region: a.region}, m.c.cfg.AssignTimeout)
			}
			if rt.Guard(p, PtAssignIOE, err != nil) {
				// An RS that failed an assignment RPC is excluded from
				// favored placement, and the assignment retried blindly.
				m.excluded[target] = true
				a.retries++
				p.SendAfter(assignRetryGap, m.pendSig, struct{}{})
				m.pending = append(m.pending, a)
				continue
			}
			m.regions[a.region] = target
		}
	}
}

// pickServer selects a target RS, via the favored balancer when enabled.
func (m *master) pickServer(p *sim.Proc, a assignment) string {
	rt := m.c.rt
	var live []string
	for _, rs := range m.c.rss {
		if !m.excluded[rs.node] && !m.c.eng.Crashed(rs.node) {
			live = append(live, rs.node)
		}
	}
	sort.Strings(live)
	if m.c.cfg.Favored {
		// canPlaceFavoredNodes: the favored balancer needs at least three
		// live, non-excluded servers.
		ok := rt.Negate(p, PtCanPlace, len(live) >= 3, false)
		if !ok {
			return ""
		}
	}
	if len(live) == 0 {
		return ""
	}
	// Least regions first.
	counts := map[string]int{}
	for _, owner := range m.regions {
		counts[owner]++
	}
	best := live[0]
	for _, s := range live[1:] {
		if counts[s] < counts[best] {
			best = s
		}
	}
	return best
}

// balancerLoop periodically rebalances regions; each move is a deployment.
func (m *master) balancerLoop(p *sim.Proc) {
	defer p.Enter("runBalancer")()
	rt := m.c.rt
	for {
		p.SleepQ(balanceEvery + time.Duration(p.Rand().Intn(50))*time.Millisecond)
		counts := map[string]int{}
		for _, owner := range m.regions {
			counts[owner]++
		}
		max, min := "", ""
		for _, rs := range m.c.rss {
			if m.excluded[rs.node] {
				continue
			}
			if max == "" || counts[rs.node] > counts[max] {
				max = rs.node
			}
			if min == "" || counts[rs.node] < counts[min] {
				min = rs.node
			}
		}
		if max == "" || min == "" || counts[max]-counts[min] < 2 {
			continue
		}
		rt.Loop(p, PtBalancerLoop)
		// Move one region from max to min via the assignment manager.
		for region, owner := range m.regions {
			if owner == max {
				m.regions[region] = ""
				m.enqueue(p, assignment{region: region, rs: min})
				break
			}
		}
	}
}

type createTableMsg struct {
	name    string
	regions int
	clone   bool
}

type putMsg struct {
	region string
	n      int
}

func (m *master) rpcHandler(p *sim.Proc) {
	defer p.Enter("masterRPC")()
	rt := m.c.rt
	for {
		msg := p.RecvQ(m.rpc)
		req := msg.(sim.Req)
		switch body := req.Body.(type) {
		case createTableMsg:
			p.Work(20 * time.Millisecond)
			if rt.Guard(p, PtCloneIOE, body.clone && len(m.pending) > 24) {
				p.Reply(req, nil, fmt.Errorf("hbase: clone overloaded"))
				continue
			}
			for i := 0; i < body.regions; i++ {
				m.enqueue(p, assignment{region: fmt.Sprintf("%s-r%d", body.name, i)})
			}
			p.Reply(req, nil, nil)
		default:
			p.Reply(req, nil, nil)
		}
	}
}

// --- RegionServer ---

type openRegionMsg struct{ region string }

type regionServer struct {
	c    *Cluster
	node string
	rpc  *sim.Mailbox

	walPending int // appended, not yet synced
	walSynced  int
	walTotal   int
	lastSync   time.Duration // when the sync loop last caught up
	replayed   int           // replay reader's high-water mark
	regions    map[string]bool
	walMu      *sim.Mutex
}

func newRegionServer(c *Cluster, idx int) *regionServer {
	rs := &regionServer{
		c:       c,
		node:    fmt.Sprintf("rs%d", idx),
		regions: make(map[string]bool),
	}
	rs.rpc = c.eng.NewMailbox(rs.node, "rpc")
	rs.walMu = sim.NewMutex(c.eng, rs.node)
	return rs
}

func (rs *regionServer) start() {
	for i := 0; i < 2; i++ {
		rs.c.eng.Spawn(rs.node, "handler", rs.handlerLoop)
	}
	rs.c.eng.Spawn(rs.node, "walSync", rs.walSyncLoop)
	rs.c.eng.Spawn(rs.node, "memstoreFlush", rs.flushLoop)
	if rs.c.cfg.Replay {
		rs.c.eng.Spawn(rs.node, "walReplay", rs.walReplay)
	}
}

func (rs *regionServer) handlerLoop(p *sim.Proc) {
	rt := rs.c.rt
	for {
		msg := p.RecvQ(rs.rpc)
		req := msg.(sim.Req)
		switch body := req.Body.(type) {
		case openRegionMsg:
			func() {
				defer p.Enter("openRegion")()
				rt.Loop(p, PtOpenLoop)
				p.Work(openRegionCost)
				rs.regions[body.region] = true
				p.Reply(req, nil, nil)
			}()
		case putMsg:
			func() {
				defer p.Enter("handlePut")()
				// Backpressure: puts are rejected when the WAL has a deep
				// unsynced backlog (an overloaded server).
				if rt.Guard(p, PtPutIOE, rs.walPending > 120) {
					p.Reply(req, nil, fmt.Errorf("hbase: region server overloaded"))
					return
				}
				for i := 0; i < body.n; i++ {
					p.Work(putCost)
					rs.walMu.Lock(p)
					rs.walPending++
					rs.walTotal++
					p.Work(walAppendCost)
					rs.walMu.Unlock(p)
				}
				p.Reply(req, nil, nil)
			}()
		default:
			p.Reply(req, nil, nil)
		}
	}
}

// walSyncLoop flushes appended WAL entries to stable storage; a lagging
// sync leaves the on-disk WAL without its trailer, which the replay reader
// observes as a premature end-of-file.
func (rs *regionServer) walSyncLoop(p *sim.Proc) {
	defer p.Enter("walSync")()
	rt := rs.c.rt
	for {
		p.SleepQ(walSyncEvery + time.Duration(p.Rand().Intn(30))*time.Millisecond)
		if rs.walPending == 0 {
			rs.lastSync = p.Now()
			continue
		}
		rs.walMu.Lock(p)
		n := rs.walPending
		for i := 0; i < n; i++ {
			rt.Loop(p, PtWALSyncLoop)
			if rt.Guard(p, PtWALSyncIOE, false) {
				break // sync failure: remaining entries stay pending
			}
			p.Work(walSyncCost)
			rs.walPending--
			rs.walSynced++
		}
		if rs.walPending == 0 {
			rs.lastSync = p.Now()
		}
		rs.walMu.Unlock(p)
	}
}

// walReplay models a WAL split/replay reader (e.g. during region moves):
// it repeatedly reads the WAL tail; an incomplete file (missing trailer)
// is retried after a pause, without bound -- the HBASE-1 feedback loop.
func (rs *regionServer) walReplay(p *sim.Proc) {
	defer p.Enter("walReplay")()
	rt := rs.c.rt
	for {
		rs.walMu.Lock(p)
		// The reader holds the WAL lock while scanning (the loop hook
		// sits inside the critical section, so an injected per-iteration
		// delay starves sync), competing with appends and sync. The file
		// is "complete" when the sync backlog is shallow -- a reader
		// racing an ordinarily-healthy writer does not see a premature
		// EOF, but a stalled sync does surface one.
		rt.Loop(p, PtWALReplayLoop)
		p.Work(replayEntryGap)
		syncFresh := p.Now()-rs.lastSync < 2*walSyncEvery+200*time.Millisecond
		complete := rt.Negate(p, PtWALComplete, rs.walPending < 30 && syncFresh, false)
		synced := rs.walSynced
		rs.walMu.Unlock(p)
		if !complete {
			// PrematureEndOfFile: retry from scratch shortly, without
			// bound -- the HBASE-1 feedback (each retry holds the WAL
			// lock, making the sync lag it is waiting out even worse).
			p.SleepQ(replayRetryGap)
			continue
		}
		if synced > rs.replayed {
			rs.replayed = synced
		}
		p.SleepQ(replayScanEvery)
	}
}

// flushLoop drains memstores periodically (background disk load).
func (rs *regionServer) flushLoop(p *sim.Proc) {
	defer p.Enter("memstoreFlush")()
	rt := rs.c.rt
	for {
		p.SleepQ(flushEvery + time.Duration(p.Rand().Intn(40))*time.Millisecond)
		if len(rs.regions) == 0 && rs.walSynced == 0 {
			continue
		}
		rt.Loop(p, PtFlushLoop)
		rs.walMu.Lock(p)
		p.Work(flushCost)
		rs.walMu.Unlock(p)
	}
}

func (c *Cluster) rsByName(name string) *regionServer {
	for _, rs := range c.rss {
		if rs.node == name {
			return rs
		}
	}
	return nil
}

// --- clients ---

// loadClient is one put-driving client.
type loadClient struct {
	c          *Cluster
	ops, batch int
	gap        time.Duration

	done int // completed puts (their gap may still be pending)
}

func (cl *loadClient) run(p *sim.Proc) {
	defer p.Enter("clientPut")()
	rt := cl.c.rt
	c := cl.c
	for cl.done < cl.ops {
		rt.Loop(p, PtPutLoop)
		i := cl.done
		rs := c.rss[i%len(c.rss)]
		_, err := p.Call(rs.rpc, putMsg{region: "any", n: cl.batch}, c.cfg.PutTimeout)
		failures := 0
		if err != nil {
			failures++
			rs2 := c.rss[(i+1)%len(c.rss)]
			if _, err2 := p.Call(rs2.rpc, putMsg{region: "any", n: cl.batch}, c.cfg.PutTimeout); err2 != nil {
				failures++
			}
		}
		rt.Guard(p, PtClientIOE, failures >= 2)
		cl.done++
		p.SleepQ(cl.gap + time.Duration(p.Rand().Intn(40))*time.Millisecond)
	}
}

// SpawnLoadClient drives puts at the cluster.
func (c *Cluster) SpawnLoadClient(name string, ops, batch int, gap time.Duration) {
	if gap == 0 {
		gap = 150 * time.Millisecond
	}
	cl := &loadClient{c: c, ops: ops, batch: batch, gap: gap}
	c.eng.Spawn("client-"+name, name, cl.run)
}

// tableCreator issues table create/clone storms (the §8.3.1 t1
// condition).
type tableCreator struct {
	c               *Cluster
	name            string
	tables, regions int
	clone           bool
	gap             time.Duration

	done int
}

func (cl *tableCreator) run(p *sim.Proc) {
	defer p.Enter("createTable")()
	c := cl.c
	for cl.done < cl.tables {
		p.Call(c.master.rpc, createTableMsg{name: fmt.Sprintf("%s-t%d", cl.name, cl.done), regions: cl.regions, clone: cl.clone}, 10*time.Second)
		cl.done++
		p.SleepQ(cl.gap + time.Duration(p.Rand().Intn(60))*time.Millisecond)
	}
}

// SpawnTableCreator issues table create/clone storms (the §8.3.1 t1
// condition).
func (c *Cluster) SpawnTableCreator(name string, tables, regions int, clone bool, gap time.Duration) {
	if gap == 0 {
		gap = 600 * time.Millisecond
	}
	cl := &tableCreator{c: c, name: name, tables: tables, regions: regions, clone: clone, gap: gap}
	c.eng.Spawn("client-"+name, name, cl.run)
}
