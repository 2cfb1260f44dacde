package hdfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/topology"
)

// busiestDataNode returns the live node holding the most data blocks of
// encoded stripes — the node whose death costs the most repairs.
func busiestDataNode(t *testing.T, c *Cluster) topology.NodeID {
	t.Helper()
	nn := c.NameNode()
	count := make(map[topology.NodeID]int)
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Aborted {
				continue
			}
			for _, n := range meta.Nodes {
				if !nn.IsDead(n) {
					count[n]++
				}
			}
		}
	}
	best, bestN := topology.NodeID(-1), -1
	for n := 0; n < c.Topology().Nodes(); n++ {
		if count[topology.NodeID(n)] > bestN {
			best, bestN = topology.NodeID(n), count[topology.NodeID(n)]
		}
	}
	if bestN <= 0 {
		t.Fatal("no node holds any encoded data block")
	}
	return best
}

// verifyBlockContents reads every written block through the client path and
// compares against ground truth.
func verifyBlockContents(t *testing.T, c *Cluster, contents map[topology.BlockID][]byte) {
	t.Helper()
	for id, want := range contents {
		got, err := c.ReadBlock(0, id)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d content diverged after repair", id)
		}
	}
}

// repairGeometry is one (k, m, rack layout, block/chunk size) cluster shape
// the differential reconstruction tests run on.
type repairGeometry struct {
	name  string
	cfg   Config
	chunk int
}

// repairGeometries spans short stripes and aborted members (through
// populatePipeTest), a block size not divisible by the chunk, disk
// shaping, and both policies.
func repairGeometries() []repairGeometry {
	return []repairGeometry{
		{
			name: "ear-6x3-k4n6",
			cfg: Config{Racks: 6, NodesPerRack: 3, Policy: "ear", Replicas: 3,
				K: 4, N: 6, C: 1, BlockSizeBytes: 8 << 10,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 4, Seed: 1},
			chunk: 2 << 10,
		},
		{
			name: "rr-3x4-k6n9-disk",
			cfg: Config{Racks: 3, NodesPerRack: 4, Policy: "rr", Replicas: 2,
				K: 6, N: 9, C: 3, BlockSizeBytes: 16 << 10,
				BandwidthBytesPerSec: 64 << 20, DiskBandwidthBytesPerSec: 256 << 20,
				MapTasks: 2, Seed: 2},
			chunk: 4 << 10,
		},
		{
			// Odd block size not divisible by the chunk: exercises the
			// partial final chunk of every repair hop.
			name: "rr-5x3-k8n10-oddblock",
			cfg: Config{Racks: 5, NodesPerRack: 3, Policy: "rr", Replicas: 2,
				K: 8, N: 10, C: 2, BlockSizeBytes: 10000,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 3, Seed: 3},
			chunk: 4096,
		},
		{
			name: "ear-4x3-k8n12-smallchunk",
			cfg: Config{Racks: 4, NodesPerRack: 3, Policy: "ear", Replicas: 2,
				K: 8, N: 12, C: 3, BlockSizeBytes: 12 << 10,
				BandwidthBytesPerSec: 64 << 20, MapTasks: 2, Seed: 4},
			chunk: 1 << 10,
		},
	}
}

// TestTwoLevelRepairMatchesGather is the differential property test: across
// a spread of (k, m, rack layout, block/chunk size) geometries — with short
// stripes and aborted members in the population — killing a full DataNode
// and recovering it must restore byte-identical block and parity content on
// both repair paths, and the two-level path must never move more bytes
// across the rack core than the gather path. A second kill targets a
// parity holder so parity-row reconstruction with a dead parity node is
// covered in every geometry.
func TestTwoLevelRepairMatchesGather(t *testing.T) {
	for _, g := range repairGeometries() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			gatherCfg := g.cfg
			gatherCfg.GatherRepair = true
			twoCfg := g.cfg
			twoCfg.PipelineChunkBytes = g.chunk

			gather, err := NewCluster(gatherCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer gather.Close()
			two, err := NewCluster(twoCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer two.Close()

			seed := g.cfg.Seed + 200
			gc := populatePipeTest(t, gather, seed)
			tc := populatePipeTest(t, two, seed)
			if _, err := gather.RaidNode().EncodeAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := two.RaidNode().EncodeAll(); err != nil {
				t.Fatal(err)
			}

			// Identical write sequences and seeds: both clusters place
			// blocks identically, so the same node dies on both.
			dead := busiestDataNode(t, gather)
			if d2 := busiestDataNode(t, two); d2 != dead {
				t.Fatalf("placement diverged: busiest node %d vs %d", dead, d2)
			}
			recover := func(c *Cluster, n topology.NodeID) RecoveryStats {
				c.NameNode().MarkDead(n)
				stats, err := c.RecoverNode(context.Background(), n)
				if err != nil {
					t.Fatalf("RecoverNode(%d): %v", n, err)
				}
				return stats
			}
			gs := recover(gather, dead)
			ts := recover(two, dead)
			// Data placement is identical across the clusters (checked
			// above); compare per-member cross-rack cost rather than
			// absolute totals.
			if gs.BlocksRepaired != ts.BlocksRepaired {
				t.Fatalf("data repair counts diverged: gather %d, two-level %d",
					gs.BlocksRepaired, ts.BlocksRepaired)
			}
			if gs.BlocksRepaired+gs.ParityRepaired == 0 {
				t.Fatal("node death cost no repairs")
			}
			gMembers := gs.BlocksRepaired + gs.ParityRepaired
			tMembers := ts.BlocksRepaired + ts.ParityRepaired
			gPer := float64(gs.CrossRackBytes) / float64(gMembers)
			tPer := float64(ts.CrossRackBytes) / float64(tMembers)
			if tPer > gPer {
				t.Errorf("two-level repair moved more cross-rack bytes per member than gather: %.0f > %.0f",
					tPer, gPer)
			}
			verifyBlockContents(t, gather, gc)
			verifyBlockContents(t, two, tc)
			if n := verifyParities(t, gather, gc); n == 0 {
				t.Fatal("gather cluster verified no parity")
			}
			if n := verifyParities(t, two, tc); n == 0 {
				t.Fatal("two-level cluster verified no parity")
			}

			// Second failure: a parity holder of the first encoded stripe,
			// so the sweep reconstructs a parity row (decode-row fold for a
			// parity target) with the holder dead.
			gather.NameNode().MarkAlive(dead)
			two.NameNode().MarkAlive(dead)
			sid := gather.NameNode().EncodedStripes()[0]
			sm, err := gather.NameNode().Stripe(sid)
			if err != nil {
				t.Fatal(err)
			}
			pDead := sm.Plan.Parity[0]
			gs = recover(gather, pDead)
			if gs.ParityRepaired == 0 {
				t.Fatalf("killing parity holder %d repaired no parity on gather", pDead)
			}
			tsm, err := two.NameNode().Stripe(two.NameNode().EncodedStripes()[0])
			if err != nil {
				t.Fatal(err)
			}
			ts = recover(two, tsm.Plan.Parity[0])
			if ts.ParityRepaired == 0 {
				t.Fatalf("killing parity holder %d repaired no parity on two-level", tsm.Plan.Parity[0])
			}
			verifyBlockContents(t, gather, gc)
			verifyBlockContents(t, two, tc)
			if verifyParities(t, gather, gc) == 0 || verifyParities(t, two, tc) == 0 {
				t.Fatal("no parity verified after parity-holder recovery")
			}
		})
	}
}

// TestRepairCancelCommitsNothing kills the context mid-repair on a slow
// fabric and verifies the staged-commit contract for the two-level path: no
// block lands in any store, no location changes, the auditor stays clean,
// and rerunning the repair at full speed restores the block.
func TestRepairCancelCommitsNothing(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 256 << 10
	cfg.BandwidthBytesPerSec = 64 << 10 // ~4s per block: cancel lands mid-chunk
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)

	// Populate and encode at full speed, then throttle for the repair.
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ids, contents := writeBlocks(t, c, cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric().SetAllRates(cfg.BandwidthBytesPerSec); err != nil {
		t.Fatal(err)
	}

	victim := ids[0]
	vm, err := c.NameNode().Block(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])

	snapshot := func() map[topology.NodeID]int {
		keys := make(map[topology.NodeID]int)
		for n := 0; n < c.Topology().Nodes(); n++ {
			dn, err := c.DataNodeOf(topology.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			keys[topology.NodeID(n)] = len(dn.Store.Keys())
		}
		return keys
	}
	before := snapshot()
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.RepairBlockCtx(ctx, victim); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RepairBlockCtx under timeout = %v, want DeadlineExceeded", err)
	}
	// The canceled pipeline must wind down without leaking hop goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	after := snapshot()
	for n, count := range after {
		if count != before[n] {
			t.Fatalf("node %d store changed across canceled repair: %d -> %d keys", n, before[n], count)
		}
	}
	if meta, err := c.NameNode().Block(victim); err != nil || len(meta.Nodes) != 1 || meta.Nodes[0] != vm.Nodes[0] {
		t.Fatalf("block location changed across canceled repair: %v, %v", meta, err)
	}
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after canceled repair: %+v", rep)
	}

	// Requeue: the same repair at full speed succeeds and restores content.
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	target, err := c.RepairBlock(victim)
	if err != nil {
		t.Fatalf("repair after cancel: %v", err)
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dn.Store.Get(DataKey(victim))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("repaired content differs from ground truth")
	}
	if rep := aud.Report(); rep.Total() != 0 {
		t.Fatalf("auditor dirty after re-repair: %+v", rep)
	}
}

// TestRepairIntoDeadHoldersRackStaysClean repairs a block onto a node in
// its dead holder's rack, which the stripe's c=1 rack cap allows once the
// dead copy no longer counts: committed as one relocation, the repair
// never shows the journal models both copies in that rack at once, so the
// auditor stays clean at every event.
func TestRepairIntoDeadHoldersRackStaysClean(t *testing.T) {
	c := newTestCluster(t, "ear")
	jrn := events.NewJournal(4096)
	c.SetJournal(jrn)
	cfg := c.Config()
	aud := audit.New(c.Topology(), audit.Config{Replicas: cfg.Replicas, C: cfg.C, CheckCoreRack: true})
	aud.Attach(jrn)
	rng := rand.New(rand.NewSource(73))
	ids, contents := writeBlocks(t, c, 4*cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	for _, id := range ids {
		meta, err := nn.Block(id)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Stripe < 0 || len(meta.Nodes) != 1 {
			continue
		}
		holder := meta.Nodes[0]
		nn.MarkDead(holder)
		sm, err := nn.Stripe(meta.Stripe)
		if err != nil {
			t.Fatal(err)
		}
		target, release, err := c.pickRepairTarget(sm)
		if err != nil {
			t.Fatal(err)
		}
		release()
		tr, err := c.Topology().RackOf(target)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := c.Topology().RackOf(holder)
		if err != nil {
			t.Fatal(err)
		}
		if tr != hr {
			nn.MarkAlive(holder)
			continue
		}
		got, err := c.RepairBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != target {
			t.Fatalf("repair landed on node %d, picked %d", got, target)
		}
		verifyBlockContents(t, c, contents)
		if rep := aud.Report(); rep.Total() != 0 {
			t.Fatalf("auditor dirty after repairing into the dead holder's rack: %+v", rep)
		}
		return
	}
	t.Fatal("no block's repair target fell in its dead holder's rack")
}

// TestConcurrentRepairSameStripe loses two data blocks of one stripe and
// repairs them concurrently on the two-level path — the -race run proves
// the shared decode cache, pooled buffers, and per-repair traffic books
// tolerate concurrent RepairBlock on the same stripe.
func TestConcurrentRepairSameStripe(t *testing.T) {
	cfg := testConfig("ear") // (6,4): two erasures stay decodable
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(31))
	_, contents := writeBlocks(t, c, 4*cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	// Find a stripe with two single-replica members on distinct nodes and
	// kill both holders (a (6,4) code decodes through two erasures).
	var victims []topology.BlockID
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		var picks []topology.BlockID
		seen := make(map[topology.NodeID]bool)
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Aborted || len(meta.Nodes) != 1 || seen[meta.Nodes[0]] {
				continue
			}
			seen[meta.Nodes[0]] = true
			picks = append(picks, b)
			if len(picks) == 2 {
				break
			}
		}
		if len(picks) == 2 {
			victims = picks
			for _, b := range victims {
				meta, err := nn.Block(b)
				if err != nil {
					t.Fatal(err)
				}
				nn.MarkDead(meta.Nodes[0])
			}
			break
		}
	}
	if len(victims) != 2 {
		t.Fatal("no stripe offered two single-replica victims on distinct nodes")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(victims))
	targets := make([]topology.NodeID, len(victims))
	for i, b := range victims {
		i, b := i, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			targets[i], errs[i] = c.RepairBlock(b)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent repair of block %d: %v", victims[i], err)
		}
		dn, err := c.DataNodeOf(targets[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := dn.Store.Get(DataKey(victims[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[victims[i]]) {
			t.Fatalf("block %d repaired with wrong content", victims[i])
		}
	}
	// Concurrent picks for one stripe see each other's targets: at c=1
	// the two rebuilt members land in different racks.
	r0, err := c.Topology().RackOf(targets[0])
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Topology().RackOf(targets[1])
	if err != nil {
		t.Fatal(err)
	}
	if r0 == r1 {
		t.Fatalf("concurrent repairs of one stripe both landed in rack %d (nodes %d, %d)", r0, targets[0], targets[1])
	}
}

// TestDegradedReadChainMatchesGather is the differential test of the read
// path: in every repair geometry, with the busiest node dead and with it
// the first parity holder of one of that node's stripes, every lost data
// block reads back byte-exact through the two-level chain and through the
// gather. Both clusters, built from one seed, also planned identical
// parity placements.
func TestDegradedReadChainMatchesGather(t *testing.T) {
	for _, g := range repairGeometries() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			gatherCfg := g.cfg
			gatherCfg.GatherRepair = true
			chainCfg := g.cfg
			chainCfg.PipelineChunkBytes = g.chunk
			var clusters []*Cluster
			var contents map[topology.BlockID][]byte
			for _, cfg := range []Config{gatherCfg, chainCfg} {
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				contents = populatePipeTest(t, c, g.cfg.Seed+300)
				if _, err := c.RaidNode().EncodeAll(); err != nil {
					t.Fatal(err)
				}
				clusters = append(clusters, c)
			}
			gather, chain := clusters[0], clusters[1]
			nn := gather.NameNode()
			for _, sid := range nn.EncodedStripes() {
				gsm, err := nn.Stripe(sid)
				if err != nil {
					t.Fatal(err)
				}
				csm, err := chain.NameNode().Stripe(sid)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gsm.Plan.Parity, csm.Plan.Parity) {
					t.Fatalf("stripe %d parity placed %v and %v from one seed", sid, gsm.Plan.Parity, csm.Plan.Parity)
				}
			}

			dead := busiestDataNode(t, gather)
			pDead := topology.NodeID(-1)
			for _, sid := range nn.EncodedStripes() {
				sm, err := nn.Stripe(sid)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range sm.Info.Blocks {
					meta, err := nn.Block(b)
					if err != nil {
						t.Fatal(err)
					}
					if slices.Equal(meta.Nodes, []topology.NodeID{dead}) && sm.Plan.Parity[0] != dead {
						pDead = sm.Plan.Parity[0]
					}
				}
				if pDead >= 0 {
					break
				}
			}
			if pDead < 0 {
				t.Fatal("no stripe of the busiest node has a separate parity holder")
			}
			for _, c := range clusters {
				c.NameNode().MarkDead(dead)
				c.NameNode().MarkDead(pDead)
			}

			ids := make([]topology.BlockID, 0, len(contents))
			for id := range contents {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			reads := 0
			for _, id := range ids {
				live, err := nn.LiveReplicas(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(live) > 0 {
					continue
				}
				reader := topology.NodeID(int(id) % gather.Topology().Nodes())
				for reader == dead || reader == pDead {
					reader = (reader + 1) % topology.NodeID(gather.Topology().Nodes())
				}
				for i, c := range clusters {
					got, err := c.ReadBlock(reader, id)
					if err != nil {
						t.Fatalf("cluster %d: degraded read of block %d: %v", i, id, err)
					}
					if !bytes.Equal(got, contents[id]) {
						t.Fatalf("cluster %d: degraded read of block %d returned wrong bytes", i, id)
					}
				}
				reads++
			}
			if reads == 0 {
				t.Fatal("the failures left no block to read degraded")
			}
		})
	}
}

// fullStripeVictim returns a data block of an encoded stripe with k live
// data members, its stripe and its position there.
func fullStripeVictim(t *testing.T, c *Cluster) (topology.BlockID, *StripeMeta, int) {
	t.Helper()
	nn := c.NameNode()
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.Info.Blocks) != c.Config().K {
			continue
		}
		full := true
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil {
				t.Fatal(err)
			}
			full = full && !meta.Aborted && len(meta.Nodes) == 1
		}
		if full {
			return sm.Info.Blocks[1], sm, 1
		}
	}
	t.Fatal("no full encoded stripe")
	return 0, nil, 0
}

// liveReader returns the lowest-numbered live node.
func liveReader(c *Cluster) topology.NodeID {
	n := topology.NodeID(0)
	for c.NameNode().IsDead(n) {
		n++
	}
	return n
}

// TestDegradedReadSurvivesCorruptSurvivor corrupts the survivor copy a
// degraded read's chain would fold mid-chain: the chain drops that copy,
// re-plans over the remaining survivors and still returns the written
// bytes.
func TestDegradedReadSurvivesCorruptSurvivor(t *testing.T) {
	c := newTestCluster(t, "ear")
	rng := rand.New(rand.NewSource(61))
	_, contents := writeBlocks(t, c, 4*c.Config().K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	victim, sm, pos := fullStripeVictim(t, c)
	vm, err := c.NameNode().Block(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])
	reader := liveReader(c)

	hops, _, err := c.planRepairChain(sm, pos, reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 3 {
		t.Fatalf("chain of %d hops has no middle", len(hops))
	}
	mid := hops[len(hops)/2]
	dn, err := c.DataNodeOf(mid.Node)
	if err != nil {
		t.Fatal(err)
	}
	if err := dn.Store.Corrupt(c.repairPosKey(sm, mid.Positions[0])); err != nil {
		t.Fatal(err)
	}
	got, err := c.DegradedRead(reader, victim)
	if err != nil {
		t.Fatalf("degraded read with a corrupt mid-chain survivor: %v", err)
	}
	if !bytes.Equal(got, contents[victim]) {
		t.Fatal("degraded read with a corrupt mid-chain survivor returned wrong bytes")
	}
}

// chainFrames counts the goroutines running a reconstruction chain's hop
// stages and read-ahead streams.
func chainFrames() (hops, readAheads int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "hdfs.(*Cluster).readAhead(") {
			readAheads++
		} else if strings.Contains(g, "hdfs.(*Cluster).runRepairChain.func") {
			hops++
		}
	}
	return hops, readAheads
}

// TestDegradedReadCancelMidChainLeaksNothing cancels a degraded read while
// its chain streams on a slow fabric and slower disks: the read promptly
// fails with the context's error, and every hop and read-ahead goroutine
// exits.
func TestDegradedReadCancelMidChainLeaksNothing(t *testing.T) {
	cfg := testConfig("ear")
	cfg.BlockSizeBytes = 256 << 10
	cfg.BandwidthBytesPerSec = 64 << 10     // ~4s per block on the wire
	cfg.DiskBandwidthBytesPerSec = 32 << 10 // read-ahead outlasts the cancel
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Fabric().SetAllRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric().SetDiskRates(64 << 30); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	writeBlocks(t, c, 4*cfg.K, rng)
	if _, err := c.NameNode().FlushOpenStripes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RaidNode().EncodeAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric().SetAllRates(cfg.BandwidthBytesPerSec); err != nil {
		t.Fatal(err)
	}
	if err := c.Fabric().SetDiskRates(cfg.DiskBandwidthBytesPerSec); err != nil {
		t.Fatal(err)
	}
	victim, _, _ := fullStripeVictim(t, c)
	vm, err := c.NameNode().Block(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.NameNode().MarkDead(vm.Nodes[0])

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.DegradedReadCtx(ctx, liveReader(c), victim)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hops, readAheads := chainFrames(); hops > 0 && readAheads > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chain never started its hops and read-aheads")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled degraded read = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("degraded read still running 2s after its context was canceled")
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		hops, readAheads := chainFrames()
		if hops == 0 && readAheads == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d hop and %d read-ahead goroutines outlived the canceled read", hops, readAheads)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
