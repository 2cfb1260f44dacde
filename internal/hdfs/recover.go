package hdfs

// Parallel full-node recovery. When a DataNode dies, every encoded stripe
// that kept a member there needs one reconstruction — hundreds of
// independent repairs whose aggregate wall time is what the durability
// exposure window actually measures. Following the deterministic-recovery
// observation (D3: deterministic data distribution turns recovery into a
// balanced parallel job), RecoverNode enumerates the lost members up
// front, assigns every repair a target with a deterministic
// least-loaded-first rule balanced across surviving racks and nodes, and
// fans the repairs out through a bounded workgroup. Each repair runs the
// configured path (the two-level chain by default, the naive gather under
// Config.GatherRepair) and publishes the usual RepairStarted/RepairFinished
// lifecycle, so the progress tracker folds the sweep into the
// durability-exposure ledger; NodeRecoveryStarted/Finished bracket the
// whole sweep.

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"ear/internal/events"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// RecoveryStats summarizes one full-node recovery sweep.
type RecoveryStats struct {
	// Node is the dead node the sweep recovered.
	Node topology.NodeID `json:"node"`
	// BlocksRepaired / ParityRepaired count reconstructed data blocks and
	// parity rows; BlocksReplicated counts replicated blocks whose copy on
	// the dead node was re-replicated from a surviving replica.
	BlocksRepaired   int `json:"blocks_repaired"`
	ParityRepaired   int `json:"parity_repaired"`
	BlocksReplicated int `json:"blocks_replicated"`
	// BytesRepaired is the restored payload (repaired members and
	// re-replicated blocks × block size).
	BytesRepaired int64 `json:"bytes_repaired"`
	// CrossRackBytes / TotalBytes are the network bytes the repairs moved,
	// counted at the repairs' own streams (exact under concurrency, unlike
	// a fabric snapshot delta).
	CrossRackBytes int64 `json:"cross_rack_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	// Duration is the sweep's wall time.
	Duration time.Duration `json:"duration"`
}

// ThroughputMBps is the sweep's recovery rate: repaired payload over wall
// time.
func (s RecoveryStats) ThroughputMBps() float64 {
	return recoveryThroughputMBps(s.BytesRepaired, s.Duration)
}

// recoverTask is one planned restore onto target: a lost data block
// (parity == -1) or a lost parity row of stripe sm, reconstructed, or, with
// sm nil, a replicated block's lost copy, re-replicated.
type recoverTask struct {
	sm     *StripeMeta
	block  topology.BlockID
	parity int
	target topology.NodeID
}

// Every repair target — RepairBlockCtx's, the BlockMover's and each stripe
// task of a RecoverNode plan — is picked under repairMu and reserved in
// c.repairing until its member is committed or abandoned. A pick counts the
// stripe's reserved targets as occupied, so concurrent repairs of one
// stripe never share a node or overfill a rack, and the reserved targets
// of every stripe as load, so concurrent repairs spread their transfers
// over the surviving nodes' links.

// stripeOccupancy maps which live nodes already hold a member of the
// stripe or are reserved as its repair targets, and how many of those each
// rack keeps — the fault-tolerance constraints a repair target must
// respect. Caller holds repairMu.
func (c *Cluster) stripeOccupancy(sm *StripeMeta) (map[topology.NodeID]bool, map[topology.RackID]int, error) {
	used := make(map[topology.NodeID]bool)
	rackCount := make(map[topology.RackID]int)
	note := func(n topology.NodeID) error {
		if c.nn.IsDead(n) || used[n] {
			return nil
		}
		used[n] = true
		r, err := c.top.RackOf(n)
		if err != nil {
			return err
		}
		rackCount[r]++
		return nil
	}
	nodes := slices.Clone(c.repairing[sm.Info.ID])
	if sm.Plan != nil {
		nodes = append(nodes, sm.Plan.Parity...)
	}
	for _, b := range sm.Info.Blocks {
		live, err := c.nn.LiveReplicas(b)
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, live...)
	}
	for _, n := range nodes {
		if err := note(n); err != nil {
			return nil, nil, err
		}
	}
	return used, rackCount, nil
}

// pickRecoveryTarget deterministically selects the repair target for one
// lost member: the least-loaded eligible node (by repairs already assigned
// to the node, then to its rack), excluding dead nodes, used nodes, racks
// at the per-rack cap and, unless only is events.NoneRack, every rack but
// only. Ties go to the first node of a scan that starts at node start and
// wraps, so equal-load picks for different stripes spread over the cluster
// instead of piling onto the lowest node ID. The same cluster state always
// yields the same recovery plan, and the load keys spread hundreds of
// concurrent repairs evenly across surviving racks. The pick is counted
// into the loads.
func (c *Cluster) pickRecoveryTarget(start int, only topology.RackID, used map[topology.NodeID]bool, rackCount map[topology.RackID]int, nodeLoad map[topology.NodeID]int, rackLoad map[topology.RackID]int) (topology.NodeID, error) {
	maxPerRack := c.cfg.C
	if maxPerRack <= 0 {
		maxPerRack = 1
	}
	var best topology.NodeID
	var bestRack topology.RackID
	bestNode, bestRackLoad := -1, 0
	nodes := c.top.Nodes()
	for i := 0; i < nodes; i++ {
		n := topology.NodeID((start + i) % nodes)
		if c.nn.IsDead(n) || used[n] {
			continue
		}
		r, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if rackCount[r] >= maxPerRack || (only != events.NoneRack && r != only) {
			continue
		}
		nl, rl := nodeLoad[n], rackLoad[r]
		if bestNode < 0 || nl < bestNode || (nl == bestNode && rl < bestRackLoad) {
			best, bestRack, bestNode, bestRackLoad = n, r, nl, rl
		}
	}
	if bestNode < 0 {
		return 0, fmt.Errorf("%w: no eligible recovery target", ErrNoReplica)
	}
	nodeLoad[best]++
	rackLoad[bestRack]++
	return best, nil
}

// repairLoadLocked counts the reserved targets per node and per rack, over
// every stripe. Caller holds repairMu.
func (c *Cluster) repairLoadLocked() (map[topology.NodeID]int, map[topology.RackID]int, error) {
	nodeLoad := make(map[topology.NodeID]int)
	rackLoad := make(map[topology.RackID]int)
	for _, targets := range c.repairing {
		for _, n := range targets {
			r, err := c.top.RackOf(n)
			if err != nil {
				return nil, nil, err
			}
			nodeLoad[n]++
			rackLoad[r]++
		}
	}
	return nodeLoad, rackLoad, nil
}

// reserveTargetLocked picks the next repair target of sm and reserves it.
// Caller holds repairMu.
func (c *Cluster) reserveTargetLocked(sm *StripeMeta, nodeLoad map[topology.NodeID]int, rackLoad map[topology.RackID]int) (topology.NodeID, error) {
	used, rackCount, err := c.stripeOccupancy(sm)
	if err != nil {
		return 0, err
	}
	id := sm.Info.ID
	target, err := c.pickRecoveryTarget(int(id), events.NoneRack, used, rackCount, nodeLoad, rackLoad)
	if err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	if c.repairing == nil {
		c.repairing = make(map[topology.StripeID][]topology.NodeID)
	}
	c.repairing[id] = append(c.repairing[id], target)
	return target, nil
}

// releaseTargets drops the reservations of the tasks' stripe targets.
func (c *Cluster) releaseTargets(tasks []recoverTask) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	for _, t := range tasks {
		if t.sm == nil {
			continue
		}
		id := t.sm.Info.ID
		if i := slices.Index(c.repairing[id], t.target); i >= 0 {
			c.repairing[id] = slices.Delete(c.repairing[id], i, i+1)
		}
		if len(c.repairing[id]) == 0 {
			delete(c.repairing, id)
		}
	}
}

// pickRepairTarget picks and reserves the target of one single-member
// repair or relocation of sm. The caller calls release once the member is
// committed or abandoned.
func (c *Cluster) pickRepairTarget(sm *StripeMeta) (topology.NodeID, func(), error) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	nodeLoad, rackLoad, err := c.repairLoadLocked()
	if err != nil {
		return 0, nil, err
	}
	target, err := c.reserveTargetLocked(sm, nodeLoad, rackLoad)
	if err != nil {
		return 0, nil, err
	}
	return target, func() { c.releaseTargets([]recoverTask{{sm: sm, target: target}}) }, nil
}

// planNodeRecovery enumerates what the node's death cost and assigns each
// loss a deterministic, load-balanced target: every stripe member lost
// with it (a data block counts as lost only when no live replica remains
// anywhere; aborted members encode as zeros and need no repair), and every
// block not yet encoded that kept a copy there and has a live one to copy
// from. The plan's stripe targets are reserved, also those of a plan cut
// short by an error; the caller releases them with releaseTargets.
func (c *Cluster) planNodeRecovery(dead topology.NodeID) ([]recoverTask, error) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	nodeLoad, rackLoad, err := c.repairLoadLocked()
	if err != nil {
		return nil, err
	}
	var tasks []recoverTask
	for _, sid := range c.nn.EncodedStripes() {
		sm, err := c.nn.Stripe(sid)
		if err != nil {
			return tasks, err
		}
		var lost []int // stripe positions: data i < k, parity k+j
		for i, b := range sm.Info.Blocks {
			meta, err := c.nn.Block(b)
			if err != nil {
				return tasks, err
			}
			if meta.Aborted || !slices.Contains(meta.Nodes, dead) {
				continue
			}
			live, err := c.nn.LiveReplicas(b)
			if err != nil {
				return tasks, err
			}
			if len(live) > 0 {
				// Another replica survives: re-replication territory
				// (BlockMover), not reconstruction.
				continue
			}
			lost = append(lost, i)
		}
		if sm.Plan != nil {
			for j, n := range sm.Plan.Parity {
				if n == dead {
					lost = append(lost, c.cfg.K+j)
				}
			}
		}
		for _, pos := range lost {
			target, err := c.reserveTargetLocked(sm, nodeLoad, rackLoad)
			if err != nil {
				return tasks, err
			}
			t := recoverTask{sm: sm, parity: -1, target: target}
			if pos < c.cfg.K {
				t.block = sm.Info.Blocks[pos]
			} else {
				t.parity = pos - c.cfg.K
			}
			tasks = append(tasks, t)
		}
	}
	deadRack, err := c.top.RackOf(dead)
	if err != nil {
		return tasks, err
	}
	for _, b := range c.nn.BlocksOn(dead) {
		meta, err := c.nn.Block(b)
		if err != nil {
			return tasks, err
		}
		live, err := c.nn.LiveReplicas(b)
		if err != nil {
			return tasks, err
		}
		if meta.Encoded || meta.Aborted || !meta.Committed || len(live) == 0 {
			continue
		}
		// The copy stays in the dead node's rack when a node there is
		// free, keeping the core-rack copy and the rack layout EAR's
		// post-encoding matching relies on.
		holders := make(map[topology.NodeID]bool)
		for _, n := range meta.Nodes {
			holders[n] = true
		}
		target, err := c.pickRecoveryTarget(int(b), deadRack, holders, nil, nodeLoad, rackLoad)
		if err != nil {
			target, err = c.pickRecoveryTarget(int(b), events.NoneRack, holders, nil, nodeLoad, rackLoad)
		}
		if err != nil {
			return tasks, fmt.Errorf("block %d: %w", b, err)
		}
		tasks = append(tasks, recoverTask{block: b, parity: -1, target: target})
	}
	return tasks, nil
}

// RecoverNode reconstructs every stripe member lost with the dead node,
// fanning the repairs out with Config.RecoverParallelism workers. The node
// must already be marked dead (MarkDead). Repairs share one deterministic
// plan; each runs the configured repair path, commits with staged Puts,
// and publishes its own lifecycle events, so a failed or canceled sweep
// leaves every completed repair durable and every unfinished one
// uncommitted — rerunning RecoverNode picks up exactly the remainder.
func (c *Cluster) RecoverNode(ctx context.Context, dead topology.NodeID) (RecoveryStats, error) {
	stats := RecoveryStats{Node: dead}
	if !c.nn.IsDead(dead) {
		return stats, fmt.Errorf("node %d is not marked dead", dead)
	}
	t0 := time.Now()
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.recover-node")
	span.Arg("node", strconv.Itoa(int(dead)))
	defer span.End()

	tasks, err := c.planNodeRecovery(dead)
	defer c.releaseTargets(tasks)
	if err != nil {
		return stats, err
	}
	span.Arg("lost", strconv.Itoa(len(tasks)))
	if j := c.Journal(); j != nil {
		ev := events.New(events.NodeRecoveryStarted, "raidnode")
		ev.Node = dead
		ev.Detail = strconv.Itoa(len(tasks))
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}

	var mu sync.Mutex
	g, gctx := workgroup.WithContext(ctx)
	g.SetLimit(c.cfg.RecoverParallelism)
	for _, t := range tasks {
		t := t
		g.Go(func() error {
			var tr *repairTraffic
			var err error
			switch {
			case t.sm == nil:
				tr, err = c.replicateOnto(gctx, t.block, dead, t.target)
			case t.parity < 0:
				tr, err = c.repairBlockOnto(gctx, t.block, t.sm, t.target)
			default:
				tr, err = c.repairParityOnto(gctx, t.sm, t.parity, t.target)
			}
			if err != nil {
				return err
			}
			cross, total := tr.bytes()
			mu.Lock()
			switch {
			case t.sm == nil:
				stats.BlocksReplicated++
			case t.parity < 0:
				stats.BlocksRepaired++
			default:
				stats.ParityRepaired++
			}
			stats.BytesRepaired += int64(c.cfg.BlockSizeBytes)
			stats.CrossRackBytes += cross
			stats.TotalBytes += total
			mu.Unlock()
			return nil
		})
	}
	err = g.Wait()
	stats.Duration = time.Since(t0)
	if j := c.Journal(); j != nil {
		ev := events.New(events.NodeRecoveryFinished, "raidnode")
		ev.Node = dead
		ev.Bytes = stats.BytesRepaired
		ev.Detail = strconv.Itoa(stats.BlocksRepaired + stats.ParityRepaired + stats.BlocksReplicated)
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	return stats, err
}

// repairParityOnto rebuilds lost parity row j of stripe sm onto target:
// the mirror of repairBlockOnto for positions k..n-1. The rebuilt row is
// staged (nothing stored or published until reconstruction succeeded),
// then committed with UpdateParityLocation. Lifecycle events carry
// Detail "parity" with Block unset, and a ReplicaRelocated event moves
// the parity holder in stream-tracking models.
func (c *Cluster) repairParityOnto(ctx context.Context, sm *StripeMeta, j int, target topology.NodeID) (*repairTraffic, error) {
	if sm.Plan == nil || j < 0 || j >= len(sm.Plan.Parity) {
		return nil, fmt.Errorf("%w: stripe %d has no parity row %d", ErrUnknownStripe, sm.Info.ID, j)
	}
	t0 := time.Now()
	if m := c.metrics(); m != nil {
		defer func() { m.repairLat.Observe(time.Since(t0).Seconds()) }()
	}
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.repair-parity")
	span.Arg("stripe", strconv.FormatInt(int64(sm.Info.ID), 10)).
		Arg("row", strconv.Itoa(j))
	defer span.End()
	// Parity belongs to the stripe, not to one block: charge the stripe's
	// first member's owner so the rebuild traffic lands on the tenant whose
	// data the row protects.
	if len(sm.Info.Blocks) > 0 {
		ctx = tenant.NewContext(ctx, c.acct.Owner(sm.Info.Blocks[0]))
	}
	old := sm.Plan.Parity[j]
	if j := c.Journal(); j != nil {
		ev := events.New(events.RepairStarted, "raidnode")
		ev.Stripe, ev.Node = sm.Info.ID, target
		ev.Detail = "parity"
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
	defer c.bufPool.Put(buf)
	tr := &repairTraffic{}
	if err := c.repairStripePos(ctx, sm, c.cfg.K+j, target, buf, tr); err != nil {
		return nil, err
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		return nil, err
	}
	// Supersede any stale copy left from before the target last died.
	_ = dn.Store.Delete(ParityKey(sm.Info.ID, j))
	if err := dn.Store.Put(ParityKey(sm.Info.ID, j), buf); err != nil {
		return nil, err
	}
	if err := c.nn.UpdateParityLocation(sm.Info.ID, j, target); err != nil {
		return nil, err
	}
	if jr := c.Journal(); jr != nil {
		ev := events.New(events.RepairFinished, "raidnode")
		ev.Stripe, ev.Node = sm.Info.ID, target
		ev.Bytes = int64(len(buf))
		ev.Detail = "parity"
		ev.Trace = telemetry.TraceFromContext(ctx)
		jr.Publish(ev)
		// Move the parity holder in stream-tracking models (the auditor
		// rewrites its parity map on this, same as BlockMover relocation).
		rel := events.New(events.ReplicaRelocated, "raidnode")
		rel.Stripe, rel.Node, rel.Peer = sm.Info.ID, old, target
		rel.Bytes = int64(len(buf))
		rel.Detail = "parity"
		rel.Trace = telemetry.TraceFromContext(ctx)
		jr.Publish(rel)
	}
	c.observeRepair(tr, int64(len(buf)), time.Since(t0))
	c.acct.Charge(tenant.FromContext(ctx), "repair", 1, int64(len(buf)))
	return tr, nil
}

// replicateOnto restores the copy of replicated block id lost with the dead
// node: it copies a surviving replica onto target (the nearest first, the
// next one on a missing or corrupt copy), swaps the dead holder for target
// in the block's replica set, and publishes ReplicaRelocated (dead →
// target), which closes the block's replica-count exposure window.
func (c *Cluster) replicateOnto(ctx context.Context, id topology.BlockID, dead, target topology.NodeID) (*repairTraffic, error) {
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.replicate-block")
	span.Arg("block", strconv.FormatInt(int64(id), 10))
	defer span.End()
	ctx = tenant.NewContext(ctx, c.acct.Owner(id))
	live, err := c.nn.LiveReplicas(id)
	if err != nil {
		return nil, err
	}
	rack, err := c.top.RackOf(target)
	if err != nil {
		return nil, err
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		return nil, err
	}
	// The target holds no replica, so anything stored under the key is a
	// stale copy from before the node last died.
	_ = dn.Store.Delete(DataKey(id))
	tr := &repairTraffic{}
	var n int64
	for {
		if len(live) == 0 {
			return nil, fmt.Errorf("%w: block %d", ErrNoReplica, id)
		}
		src, err := c.nearestReplica(live, target, rack)
		if err != nil {
			return nil, err
		}
		if n, err = c.copyBlock(ctx, DataKey(id), src, target, tr); err == nil {
			break
		}
		if ctx.Err() != nil {
			return nil, err
		}
		live = slices.DeleteFunc(live, func(x topology.NodeID) bool { return x == src })
	}
	if err := c.nn.ReplaceReplica(id, dead, target); err != nil {
		// Encoded or moved meanwhile: the copy is not needed.
		_ = dn.Store.Delete(DataKey(id))
		return nil, err
	}
	if j := c.Journal(); j != nil {
		ev := events.New(events.ReplicaRelocated, "raidnode")
		ev.Block, ev.Node, ev.Peer, ev.Bytes = id, dead, target, n
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	c.acct.Charge(tenant.FromContext(ctx), "repair", 1, n)
	return tr, nil
}

// currentPlacements returns a copy of info whose placements list the
// replica sets its members hold now. The grouped placements can name a
// dead node whose copy recovery has since re-replicated elsewhere; the
// encode plans and deletes over the current ones.
func (c *Cluster) currentPlacements(info *placement.StripeInfo) (*placement.StripeInfo, error) {
	out := info.Clone()
	for i, b := range out.Blocks {
		meta, err := c.nn.Block(b)
		if err != nil {
			return nil, err
		}
		if !meta.Aborted && i < len(out.Placements) {
			out.Placements[i].Nodes = meta.Nodes
		}
	}
	return out, nil
}
