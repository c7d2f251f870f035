// Package metastore is a Raft-style replicated metadata store on the
// deterministic simulator, modeled on etcd-raft deployments (MetaStore):
// leader election with randomized timeouts, heartbeat rounds, log
// replication with follower catch-up, snapshot transfer with log
// compaction, and availability churn (nodes pausing, resuming, and
// leaving the group).
//
// It is the repository's control-plane consensus target: unlike the
// data-plane systems (HDFS, HBase, Flink, OZone analogues), its failure
// feedback runs through the *coordination* layer -- the leader's single
// serialized replication round is responsible for heartbeats, catch-up,
// and snapshot transfer all at once, so any load on one duty starves the
// others and the cluster responds by electing a new leader, which
// inherits (and amplifies) the same load.
//
// Two self-sustaining cascading failures are seeded as mechanistic
// feedback loops, mirroring the election-loop issue documented in the
// MetaStore repository:
//
//   - RAFT-1, the election-loop storm: a slow follower forces catch-up
//     replication; catch-up monopolizes the replication round; heartbeats
//     slip past the election timeout; followers elect a new leader; the
//     new leader inherits a cluster that is further behind, and client
//     retries of timed-out proposals duplicate entries, so the catch-up
//     load grows. Cycle: catch-up delay -> heartbeat-staleness negation
//     -> catch-up load.
//
//   - RAFT-2, the snapshot-transfer storm: log compaction during catch-up
//     forces full snapshot sends; a snapshot transfer occupies the round
//     for chunks x chunk-cost; meanwhile the log grows past the
//     compaction margin for every other lagging follower, so their
//     entries are compacted away too and they also need snapshots. Cycle:
//     snapshot-send delay -> log-availability negation -> snapshot load.
package metastore

import (
	"fmt"
	"time"

	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
)

// Config selects topology and features per workload.
type Config struct {
	Nodes int // replica count (default 3)
	// ColdStart boots the cluster leaderless: the first election happens
	// naturally at the first timer tick. The default pre-elects node 0 for
	// term 1 so steady-state workloads have profile runs with no election
	// activity at all.
	ColdStart bool
	// HeartbeatEvery is the leader's replication round period (default
	// 400ms).
	HeartbeatEvery time.Duration
	// ElectionTimeout is both the follower staleness bound and the election
	// timer base period; each tick adds a random jitter in [0,
	// ElectionJitter) -- the randomized timeout that breaks split votes
	// (default 2.5s + 700ms).
	ElectionTimeout time.Duration
	ElectionJitter  time.Duration
	// CatchupBatch is the number of entries per catch-up append (default 12).
	CatchupBatch int
	// Compaction enables the per-node log compaction loop, which trims the
	// log CompactKeep entries behind the apply frontier (default 150).
	Compaction  bool
	CompactKeep int
	// SnapLag, when positive, makes the leader prefer a full snapshot over
	// entry catch-up for any follower more than SnapLag entries behind.
	SnapLag int
	// SnapChunks is the number of chunks per snapshot transfer (default 12).
	SnapChunks int
	// ProposeTimeout is the client-side RPC deadline per proposal attempt
	// (default 1.2s); CommitWait is how long the leader holds a proposal
	// waiting for quorum commit before failing it back to the client
	// (default 700ms). A failed-but-appended proposal that the client
	// retries duplicates its entries -- the at-least-once amplification
	// that lets election storms feed themselves.
	ProposeTimeout time.Duration
	CommitWait     time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 400 * time.Millisecond
	}
	if c.ElectionTimeout == 0 {
		c.ElectionTimeout = 2500 * time.Millisecond
	}
	if c.ElectionJitter == 0 {
		c.ElectionJitter = 700 * time.Millisecond
	}
	if c.CatchupBatch == 0 {
		c.CatchupBatch = 12
	}
	if c.CompactKeep == 0 {
		c.CompactKeep = 150
	}
	if c.SnapChunks == 0 {
		c.SnapChunks = 12
	}
	if c.ProposeTimeout == 0 {
		c.ProposeTimeout = 1200 * time.Millisecond
	}
	if c.CommitWait == 0 {
		c.CommitWait = 700 * time.Millisecond
	}
	return c
}

const (
	hbJitter         = 40 * time.Millisecond
	entrySendCost    = 4 * time.Millisecond
	fsyncCost        = 1 * time.Millisecond
	applyCost        = 2 * time.Millisecond
	applyEvery       = 150 * time.Millisecond
	snapChunkCost    = 45 * time.Millisecond
	snapRecvCost     = 8 * time.Millisecond
	voteRPCTimeout   = 300 * time.Millisecond
	electBackoff     = 400 * time.Millisecond
	compactEvery     = 1500 * time.Millisecond
	compactBatch     = 40
	compactBatchCost = 25 * time.Millisecond
	commitPoll       = 25 * time.Millisecond
	// catchupWindow caps the catch-up batches sent to one peer in one
	// round, so a permanently-dead peer loads the round by a bounded
	// amount instead of an ever-growing backlog scan.
	catchupWindow = 8
)

type role int

const (
	follower role = iota
	candidate
	leader
)

// Cluster is one simulated MetaStore deployment.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine
	rt    *inject.Runtime
	nodes []*node
}

// NewCluster builds and starts the cluster.
func NewCluster(ctx *sysreg.RunContext, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, eng: ctx.Engine, rt: ctx.RT}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNode(c, i))
	}
	if !cfg.ColdStart {
		// Pre-elected bootstrap leader: steady-state profiles carry no
		// election activity, so election-side faults fire only under
		// perturbation (injection, churn).
		n0 := c.nodes[0]
		n0.state = leader
		n0.term = 1
		for i := range n0.next {
			n0.next[i] = 1
		}
		n0.spawnReplication(1, n0.leadEpoch)
	}
	for _, n := range c.nodes {
		n.start()
	}
	return c
}

// --- messages ---

type appendMsg struct {
	term, from     int
	fromIdx, toIdx int // entries fromIdx..toIdx inclusive; toIdx < fromIdx is a pure heartbeat
	commit         int
}

type appendAck struct {
	term, from, last int
	ok               bool
}

type snapMsg struct {
	term, from    int
	snapIdx       int
	chunk, chunks int
}

type voteReq struct {
	term, cand, last int
}

type voteResp struct {
	term    int
	granted bool
}

type proposeMsg struct {
	n int // entries in the proposal batch
}

// transferMsg asks the leader to hand leadership to its most caught-up
// follower; campaignMsg tells that follower to start an election now.
type transferMsg struct{}

type campaignMsg struct{}

// --- node ---

type node struct {
	c    *Cluster
	idx  int
	name string
	rpc  *sim.Mailbox // appends, snapshots, votes, acks: fast, non-blocking
	prop *sim.Mailbox // client proposals: handlers may wait for commit

	state     role
	term      int
	votedFor  int
	votedTerm int

	last      int // last log index
	commit    int
	applied   int
	compacted int // log compacted through this index

	lastHeard   time.Duration
	leaderHint  int
	campaigning bool

	// Leader-volatile replication state; leadEpoch invalidates a stale
	// replicationLoop after re-election.
	next, match []int
	leadEpoch   int
}

func newNode(c *Cluster, idx int) *node {
	n := &node{
		c:        c,
		idx:      idx,
		name:     fmt.Sprintf("ms%d", idx),
		votedFor: -1,
		next:     make([]int, c.cfg.Nodes),
		match:    make([]int, c.cfg.Nodes),
	}
	n.rpc = c.eng.NewMailbox(n.name, "rpc")
	n.prop = c.eng.NewMailbox(n.name, "propose")
	return n
}

func (n *node) start() {
	n.c.eng.Spawn(n.name, "rpcHandler", n.rpcHandler)
	n.c.eng.Spawn(n.name, "electionTimer", n.electionTimer)
	n.c.eng.Spawn(n.name, "applyLoop", n.applyLoop)
	for i := 0; i < 2; i++ {
		n.c.eng.Spawn(n.name, "proposeHandler", n.proposeHandler)
	}
	if n.c.cfg.Compaction {
		n.c.eng.Spawn(n.name, "compactLoop", n.compactLoop)
	}
}

// spawnReplication starts a replicationLoop for (term, epoch).
func (n *node) spawnReplication(term, epoch int) {
	n.c.eng.Spawn(n.name, "replicationLoop", func(p *sim.Proc) {
		n.replicationLoop(p, term, epoch)
	})
}

func (n *node) stepDown() {
	if n.state == leader {
		// A deposed or abdicating leader was the authority a moment ago:
		// it grants itself one election-timeout grace period (raft's
		// "reset the election timer on stepping down"), since its
		// lastHeard was never refreshed while it led.
		n.lastHeard = n.c.eng.Now()
	}
	n.state = follower
}

// observeTerm adopts a higher term seen in any message (leaders and
// candidates step down).
func (n *node) observeTerm(term int) {
	if term > n.term {
		n.term = term
		n.stepDown()
	}
}

// --- RPC handling ---

func (n *node) rpcHandler(p *sim.Proc) {
	for {
		m := p.RecvQ(n.rpc)
		switch msg := m.(type) {
		case appendMsg:
			n.handleAppend(p, msg)
		case snapMsg:
			n.handleSnapshot(p, msg)
		case appendAck:
			n.handleAck(msg)
		case transferMsg:
			n.handleTransfer(p)
		case campaignMsg:
			n.startCampaign(p)
		case sim.Req:
			if vr, isVote := msg.Body.(voteReq); isVote {
				n.handleVote(p, vr, msg)
			} else {
				p.Reply(msg, nil, nil)
			}
		}
	}
}

// handleAppend is the follower side of heartbeats and catch-up batches.
func (n *node) handleAppend(p *sim.Proc, m appendMsg) {
	defer p.Enter("handleAppend")()
	rt := n.c.rt
	if m.term < n.term {
		p.Send(n.c.nodes[m.from].rpc, appendAck{term: n.term, from: n.idx, last: n.last, ok: false})
		return
	}
	n.observeTerm(m.term)
	if n.state == candidate {
		n.stepDown() // a live leader of the current term exists
	}
	n.leaderHint = m.from
	n.lastHeard = p.Now()
	// A gap between the leader's optimistic send position and this log is
	// the append rejection of raft's consistency check: the nack makes the
	// leader rewind to the acked index and catch this follower up.
	if rt.Guard(p, PtAppendRejectIOE, m.fromIdx > n.last+1) {
		p.Send(n.c.nodes[m.from].rpc, appendAck{term: n.term, from: n.idx, last: n.last, ok: false})
		return
	}
	if m.toIdx > n.last {
		n.persistEntries(p, m.toIdx-n.last)
		n.last = m.toIdx
	}
	if m.commit > n.commit {
		n.commit = min(m.commit, n.last)
	}
	rt.Branch(p, "ms.append.has_entries", m.toIdx >= m.fromIdx)
	p.Send(n.c.nodes[m.from].rpc, appendAck{term: n.term, from: n.idx, last: n.last, ok: true})
}

// handleSnapshot installs snapshot chunks; the final chunk replaces the
// follower's log and state machine up to the snapshot index.
func (n *node) handleSnapshot(p *sim.Proc, m snapMsg) {
	defer p.Enter("handleSnapshot")()
	if m.term < n.term {
		return
	}
	n.observeTerm(m.term)
	n.leaderHint = m.from
	n.lastHeard = p.Now()
	p.Work(snapRecvCost)
	if m.chunk < m.chunks {
		return
	}
	if m.snapIdx > n.last {
		n.last = m.snapIdx
	}
	if m.snapIdx > n.commit {
		n.commit = m.snapIdx
	}
	if m.snapIdx > n.applied {
		n.applied = m.snapIdx
	}
	if m.snapIdx > n.compacted {
		n.compacted = m.snapIdx
	}
	p.Send(n.c.nodes[m.from].rpc, appendAck{term: n.term, from: n.idx, last: n.last, ok: true})
}

// handleVote grants a vote per raft's rules: one vote per term, and only
// to candidates whose log is at least as up to date.
func (n *node) handleVote(p *sim.Proc, m voteReq, req sim.Req) {
	defer p.Enter("handleVote")()
	rt := n.c.rt
	n.observeTerm(m.term)
	upToDate := rt.Negate(p, PtLogUpToDate, m.last >= n.last, false)
	grant := m.term >= n.term && upToDate && (n.votedTerm < m.term || (n.votedTerm == m.term && n.votedFor == m.cand))
	if grant {
		n.votedTerm = m.term
		n.votedFor = m.cand
		n.lastHeard = p.Now() // granting a vote resets the election timer
	}
	p.Reply(req, voteResp{term: n.term, granted: grant}, nil)
}

// handleAck is the leader side of replication acknowledgements.
func (n *node) handleAck(m appendAck) {
	n.observeTerm(m.term)
	if n.state != leader || m.term < n.term {
		return
	}
	if m.last > n.match[m.from] {
		n.match[m.from] = m.last
	}
	if m.ok {
		// Positive acks only move the send position forward: a stale
		// in-order ack arriving after an optimistic snapshot jump must not
		// rewind next and re-trigger the snapshot branch.
		if m.last+1 > n.next[m.from] {
			n.next[m.from] = m.last + 1
		}
	} else {
		// A rejection rewinds to the follower's true log end: the raft
		// consistency-check backtrack.
		n.next[m.from] = m.last + 1
	}
	n.advanceCommit()
}

// advanceCommit moves the commit index to the quorum-replicated frontier.
func (n *node) advanceCommit() {
	frontier := make([]int, 0, len(n.c.nodes))
	for _, peer := range n.c.nodes {
		if peer == n {
			frontier = append(frontier, n.last)
		} else {
			frontier = append(frontier, n.match[peer.idx])
		}
	}
	// Descending insertion sort; the k-th largest (k = quorum) is the
	// commit frontier.
	for i := 1; i < len(frontier); i++ {
		for j := i; j > 0 && frontier[j] > frontier[j-1]; j-- {
			frontier[j], frontier[j-1] = frontier[j-1], frontier[j]
		}
	}
	quorum := len(n.c.nodes)/2 + 1
	c := frontier[quorum-1]
	if c > n.last {
		c = n.last // deposed-leader logs can run ahead of ours
	}
	if c > n.commit {
		n.commit = c
	}
}

// persistEntries models the per-entry WAL fsync on the append path (leader
// proposals and follower appends both pay it).
func (n *node) persistEntries(p *sim.Proc, count int) {
	defer p.Enter("persistEntries")()
	rt := n.c.rt
	for i := 0; i < count; i++ {
		rt.Loop(p, PtFsyncLoop)
		p.Work(fsyncCost)
	}
}

// --- elections ---

// handleTransfer abdicates in favour of the most caught-up follower: the
// graceful leadership-transfer path, and the one way elections happen with
// a perfectly healthy heartbeat stream.
func (n *node) handleTransfer(p *sim.Proc) {
	if n.state != leader {
		return
	}
	best := -1
	for _, peer := range n.c.nodes {
		if peer == n || n.c.eng.Crashed(peer.name) {
			continue
		}
		if best == -1 || n.match[peer.idx] > n.match[best] {
			best = peer.idx
		}
	}
	if best == -1 {
		return
	}
	n.stepDown()
	n.leaderHint = best
	p.Send(n.c.nodes[best].rpc, campaignMsg{})
}

// startCampaign launches runElection on a fresh process (at most one per
// node), so neither the election timer nor the RPC handler blocks for the
// duration of a campaign.
func (n *node) startCampaign(p *sim.Proc) {
	if n.campaigning || n.state == leader {
		return
	}
	n.campaigning = true
	p.Spawn("campaign", func(cp *sim.Proc) { n.runElection(cp) })
}

// electionTimer is the follower-side failure detector: at every randomized
// timeout tick it checks heartbeat freshness and campaigns when the leader
// has gone silent.
func (n *node) electionTimer(p *sim.Proc) {
	defer p.Enter("electionTimer")()
	rt := n.c.rt
	cfg := n.c.cfg
	for {
		p.SleepQ(cfg.ElectionTimeout + time.Duration(p.Rand().Int63n(int64(cfg.ElectionJitter))))
		if n.state == leader {
			continue
		}
		fresh := rt.Negate(p, PtHBFresh, p.Now()-n.lastHeard < cfg.ElectionTimeout, false)
		if fresh {
			continue
		}
		n.startCampaign(p)
	}
}

// runElection campaigns until this node wins, discovers a higher term, or
// hears from a live leader. Each iteration is one term bump: the election
// rounds an observer counts during an election-loop storm.
func (n *node) runElection(p *sim.Proc) {
	defer func() { n.campaigning = false }()
	defer p.Enter("runElection")()
	rt := n.c.rt
	c := n.c
	for {
		rt.Loop(p, PtElectionLoop)
		n.state = candidate
		n.term++
		n.votedTerm = n.term
		n.votedFor = n.idx
		term := n.term
		votes := 1
		for _, peer := range c.nodes {
			if peer == n {
				continue
			}
			resp, err := p.Call(peer.rpc, voteReq{term: term, cand: n.idx, last: n.last}, voteRPCTimeout)
			if rt.Guard(p, PtVoteRPCIOE, err != nil) {
				continue
			}
			vr := resp.(voteResp)
			if vr.term > n.term {
				n.observeTerm(vr.term)
				return
			}
			if vr.granted {
				votes++
			}
		}
		if n.term != term || n.state != candidate {
			return // a concurrent message moved the term or installed a leader
		}
		won := rt.Negate(p, PtQuorumOK, votes*2 > len(c.nodes), false)
		if won {
			n.becomeLeader(p)
			return
		}
		// Split vote: randomized backoff desynchronizes the candidates.
		p.Sleep(electBackoff + time.Duration(p.Rand().Int63n(int64(c.cfg.ElectionJitter))))
		if p.Now()-n.lastHeard < c.cfg.ElectionTimeout {
			n.stepDown()
			return // a leader emerged while we were backing off
		}
	}
}

func (n *node) becomeLeader(p *sim.Proc) {
	n.state = leader
	n.leaderHint = n.idx
	n.leadEpoch++
	epoch := n.leadEpoch
	term := n.term
	for i := range n.next {
		// Optimistic: the first heartbeat's consistency check rewinds
		// next[] to each follower's true log end via the reject nack.
		n.next[i] = n.last + 1
		n.match[i] = 0
	}
	n.spawnReplication(term, epoch)
}

// --- replication (leader) ---

// replicationLoop is the leader's single serialized duty cycle: one round
// per heartbeat interval serves every peer -- snapshot transfer for peers
// whose entries are gone or too far back, entry catch-up for lagging
// peers, and a plain heartbeat otherwise. Serializing all three on one
// process is what turns any per-peer load into missed heartbeats for
// everyone else.
func (n *node) replicationLoop(p *sim.Proc, term, epoch int) {
	defer p.Enter("replicationLoop")()
	rt := n.c.rt
	c := n.c
	for {
		p.SleepQ(c.cfg.HeartbeatEvery + time.Duration(p.Rand().Int63n(int64(hbJitter))))
		if n.state != leader || n.term != term || n.leadEpoch != epoch {
			return
		}
		rt.Loop(p, PtReplRound)
		for _, peer := range c.nodes {
			if peer == n {
				continue
			}
			next := n.next[peer.idx]
			lag := n.last - next + 1
			avail := rt.Negate(p, PtLogAvail, next > n.compacted, false)
			if lag > 0 && (!avail || (c.cfg.SnapLag > 0 && lag > c.cfg.SnapLag)) {
				if !n.sendSnapshot(p, peer, term) {
					continue // transfer aborted; a later round retries
				}
				// Stream the log tail behind the snapshot in the same
				// round, so the follower comes out fully current instead
				// of permanently trailing by the apply gap.
				next = n.next[peer.idx]
				lag = n.last - next + 1
			}
			if lag > 0 {
				batches := 0
				for lo := next; lo <= n.last && batches < catchupWindow; lo += c.cfg.CatchupBatch {
					rt.Loop(p, PtCatchupLoop)
					batches++
					hi := lo + c.cfg.CatchupBatch - 1
					if hi > n.last {
						hi = n.last
					}
					p.Work(time.Duration(hi-lo+1) * entrySendCost)
					p.Send(peer.rpc, appendMsg{term: term, from: n.idx, fromIdx: lo, toIdx: hi, commit: n.commit})
				}
				continue
			}
			// Caught up: pure heartbeat (an empty append).
			p.Send(peer.rpc, appendMsg{term: term, from: n.idx, fromIdx: n.last + 1, toIdx: n.last, commit: n.commit})
		}
	}
}

// sendSnapshot streams a full state snapshot (up to the apply frontier) to
// one peer, chunk by chunk, reporting whether the transfer completed. The
// transfer runs inside the replication round: while it is in flight no
// other peer hears anything.
func (n *node) sendSnapshot(p *sim.Proc, peer *node, term int) bool {
	defer p.Enter("sendSnapshot")()
	rt := n.c.rt
	snapIdx := n.applied
	chunks := n.c.cfg.SnapChunks
	for i := 1; i <= chunks; i++ {
		rt.Loop(p, PtSnapSendLoop)
		if rt.Guard(p, PtSnapRPCIOE, false) {
			return false // transfer aborted; a later round retries from scratch
		}
		p.Work(snapChunkCost)
		p.Send(peer.rpc, snapMsg{term: term, from: n.idx, snapIdx: snapIdx, chunk: i, chunks: chunks})
	}
	if snapIdx+1 > n.next[peer.idx] {
		n.next[peer.idx] = snapIdx + 1 // optimistic; the ack corrects it
	}
	return true
}

// --- apply and compaction ---

// applyLoop advances the state machine to the commit frontier.
func (n *node) applyLoop(p *sim.Proc) {
	defer p.Enter("applyLoop")()
	rt := n.c.rt
	for {
		p.SleepQ(applyEvery)
		for n.applied < n.commit {
			rt.Loop(p, PtApplyLoop)
			p.Work(applyCost)
			n.applied++
		}
	}
}

// compactLoop trims the log CompactKeep entries behind the apply frontier.
// Compaction is what turns a long-lagging follower's catch-up into a full
// snapshot transfer: once next <= compacted the entries are simply gone.
func (n *node) compactLoop(p *sim.Proc) {
	defer p.Enter("compactLoop")()
	rt := n.c.rt
	c := n.c
	for {
		p.SleepQ(compactEvery + time.Duration(p.Rand().Intn(60))*time.Millisecond)
		target := n.applied - c.cfg.CompactKeep
		for n.compacted < target {
			rt.Loop(p, PtCompactLoop)
			step := compactBatch
			if n.compacted+step > target {
				step = target - n.compacted
			}
			p.Work(compactBatchCost)
			n.compacted += step
		}
	}
}

// --- proposals ---

var (
	errNotLeader     = fmt.Errorf("metastore: not the leader")
	errCommitTimeout = fmt.Errorf("metastore: proposal not committed in time")
)

// proposeHandler serves client proposals: the leader appends the batch,
// then holds the reply until the entries reach quorum commit (or the
// commit wait expires -- in which case the entries are already in the log
// and the client's retry will duplicate them).
func (n *node) proposeHandler(p *sim.Proc) {
	defer p.Enter("proposeHandler")()
	c := n.c
	for {
		m := p.RecvQ(n.prop)
		req := m.(sim.Req)
		pm := req.Body.(proposeMsg)
		if n.state != leader {
			p.Reply(req, n.leaderHint, errNotLeader)
			continue
		}
		n.persistEntries(p, pm.n)
		n.last += pm.n
		idx := n.last
		deadline := p.Now() + c.cfg.CommitWait
		for n.commit < idx && n.state == leader && p.Now() < deadline {
			p.Sleep(commitPoll)
		}
		if n.commit >= idx {
			p.Reply(req, idx, nil)
		} else {
			p.Reply(req, n.leaderHint, errCommitTimeout)
		}
	}
}

// proposer is one proposal client.
type proposer struct {
	c            *Cluster
	props, batch int
	gap, start   time.Duration

	done   int // completed proposals (their gap may still be pending)
	target int
}

func (cl *proposer) run(p *sim.Proc) {
	defer p.Enter("clientPropose")()
	rt := cl.c.rt
	c := cl.c
	p.SleepQ(cl.start)
	for cl.done < cl.props {
		rt.Loop(p, PtProposeLoop)
		failures := 0
		nd := c.nodes[cl.target]
		for attempt := 0; attempt <= len(c.nodes); attempt++ {
			body, err := p.Call(nd.prop, proposeMsg{n: cl.batch}, c.cfg.ProposeTimeout)
			if err == nil {
				cl.target = nd.idx
				break
			}
			failures++
			if hint, isHint := body.(int); isHint && hint >= 0 && hint < len(c.nodes) && hint != nd.idx {
				nd = c.nodes[hint]
			} else {
				nd = c.nodes[(nd.idx+1)%len(c.nodes)]
			}
		}
		rt.Guard(p, PtProposeIOE, failures > len(c.nodes))
		rt.Branch(p, "ms.propose.redirected", failures > 0)
		cl.done++
		p.SleepQ(cl.gap + time.Duration(p.Rand().Intn(40))*time.Millisecond)
	}
}

// SpawnProposer drives proposal batches at the cluster, following leader
// hints and retrying failures against the next replica -- at-least-once,
// so a proposal that was appended but not acknowledged is duplicated.
func (c *Cluster) SpawnProposer(name string, props, batch int, gap, start time.Duration) {
	if gap == 0 {
		gap = 150 * time.Millisecond
	}
	cl := &proposer{c: c, props: props, batch: batch, gap: gap, start: start}
	c.eng.Spawn("client-"+name, name, cl.run)
}

// transferLoop is the planned-leadership-transfer admin process.
type transferLoop struct {
	c            *Cluster
	start, every time.Duration
	times        int

	done int
}

func (a *transferLoop) run(p *sim.Proc) {
	p.SleepQ(a.start)
	for a.done < a.times {
		for _, n := range a.c.nodes {
			if n.state == leader && !a.c.eng.Crashed(n.name) {
				p.Send(n.rpc, transferMsg{})
				break
			}
		}
		a.done++
		p.SleepQ(a.every)
	}
}

// SpawnTransferLoop periodically asks whoever currently leads to hand
// leadership over (etcd's MoveLeader): planned elections with a healthy
// heartbeat stream. Rounds where the cluster is leaderless are skipped.
func (c *Cluster) SpawnTransferLoop(name string, start, every time.Duration, times int) {
	a := &transferLoop{c: c, start: start, every: every, times: times}
	c.eng.Spawn("admin-"+name, name, a.run)
}

// pauserLoop is the node-freezing admin process.
type pauserLoop struct {
	c               *Cluster
	target          string
	start, pauseFor time.Duration
	every           time.Duration
	times           int

	done int
}

func (a *pauserLoop) run(p *sim.Proc) {
	p.SleepQ(a.start)
	for a.done < a.times {
		a.c.eng.PauseNode(a.target)
		p.SleepQ(a.pauseFor)
		a.c.eng.ResumeNode(a.target)
		a.done++
		p.SleepQ(a.every)
	}
}

// SpawnPauser periodically freezes a node's network (a GC pause or an
// overloaded NIC): deliveries are held and flushed on resume, so the node
// falls behind and needs catch-up -- or, past the compaction margin, a
// full snapshot.
func (c *Cluster) SpawnPauser(name string, nodeIdx int, start, pauseFor, every time.Duration, times int) {
	a := &pauserLoop{c: c, target: c.nodes[nodeIdx].name, start: start, pauseFor: pauseFor, every: every, times: times}
	c.eng.Spawn("admin-"+name, name, a.run)
}

// CrashMember permanently removes a member at the given virtual time: the
// membership shrinks and the survivors keep serving as long as they still
// form a quorum of the original group.
func (c *Cluster) CrashMember(nodeIdx int, at time.Duration) {
	target := c.nodes[nodeIdx].name
	c.eng.Spawn("admin-crash", "crashMember", func(p *sim.Proc) {
		p.SleepQ(at)
		c.eng.CrashNode(target)
	})
}
