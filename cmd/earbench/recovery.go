package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ear/internal/hdfs"
	"ear/internal/topology"
)

// recoveryResult is one measured node-recovery scenario of the recovery
// suite.
type recoveryResult struct {
	Name string `json:"name"`
	// RackAware says which repair path ran: the two-level rack-aware
	// pipeline or the naive gather.
	RackAware bool `json:"rack_aware"`
	// InjectedFrac is the background cross-traffic rate as a fraction of
	// link bandwidth.
	InjectedFrac float64 `json:"injected_frac"`
	// DeadNode is the failed node (the one holding the most stripe
	// members; identical across cells because placement is seeded).
	DeadNode       int `json:"dead_node"`
	BlocksRepaired int `json:"blocks_repaired"`
	ParityRepaired int `json:"parity_repaired"`
	// MBPerSec is recovery throughput: repaired bytes over the sweep's
	// wall clock.
	MBPerSec float64 `json:"mb_per_sec"`
	// CrossRackBytesPerBlock is repair-attributed cross-rack traffic per
	// repaired member (injected traffic carries no payload and repair
	// accounting only books repair streams, so the figure stays clean
	// under background load).
	CrossRackBytesPerBlock float64 `json:"cross_rack_bytes_per_block"`
	TotalBytesPerBlock     float64 `json:"total_bytes_per_block"`
	Seconds                float64 `json:"seconds"`
}

// recoverySnapshot is the recovery suite's emitted document.
type recoverySnapshot struct {
	GeneratedAt    string           `json:"generated_at"`
	Host           hostInfo         `json:"host"`
	Racks          int              `json:"racks"`
	NodesPerRack   int              `json:"nodes_per_rack"`
	K              int              `json:"k"`
	N              int              `json:"n"`
	C              int              `json:"c"`
	BlockSizeBytes int              `json:"block_size_bytes"`
	LinkMBps       float64          `json:"link_mb_per_sec"`
	Results        []recoveryResult `json:"results"`
	// CrossRackReduction is 1 - twolevel/naive cross-rack bytes per
	// repaired member with no background traffic.
	CrossRackReduction float64 `json:"cross_rack_reduction"`
	// RecoverySpeedup is two-level MB/s over naive MB/s at the same
	// operating point.
	RecoverySpeedup float64 `json:"recovery_speedup"`
}

// runRecovery benchmarks parallel full-node recovery through the two-level
// rack-aware repair path against the naive gather on a shaped fabric: a
// wide (14,12) code packed c=4 blocks per rack on a 4x4 topology, so each
// stripe spans all four racks and a gather repair funnels most of its k=12
// survivors into one node while the two-level path folds each rack's
// survivors into one partial sum. The grid crosses the two repair paths
// with SWIM-style background traffic; every cell rebuilds the same seeded
// cluster and kills the node holding the most data blocks (data and
// parity placement are seed-deterministic, so the failed node and its lost
// member set are identical across cells).
func runRecovery(out string, stripes int) error {
	const (
		racks  = 4
		npr    = 4
		k      = 12
		n      = 14
		cMax   = 4
		blockB = 256 << 10
		linkBs = 4 << 20
	)
	snap := recoverySnapshot{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		Host:           host(),
		Racks:          racks,
		NodesPerRack:   npr,
		K:              k,
		N:              n,
		C:              cMax,
		BlockSizeBytes: blockB,
		LinkMBps:       linkBs / (1 << 20),
	}

	run := func(name string, rackAware bool, frac float64) (recoveryResult, error) {
		cfg := hdfs.Config{
			Racks:                    racks,
			NodesPerRack:             npr,
			Policy:                   "ear",
			Replicas:                 2,
			K:                        k,
			N:                        n,
			C:                        cMax,
			BlockSizeBytes:           blockB,
			BandwidthBytesPerSec:     linkBs,
			DiskBandwidthBytesPerSec: 2 * linkBs,
			MapTasks:                 4,
			Seed:                     1,
			GatherRepair:             !rackAware,
			RecoverParallelism:       16,
		}
		c, err := hdfs.NewCluster(cfg)
		if err != nil {
			return recoveryResult{}, err
		}
		defer c.Close()
		// Populate and encode unthrottled — only the recovery sweep is
		// measured — then restore the shaped rates.
		if err := c.Fabric().SetAllRates(64 << 30); err != nil {
			return recoveryResult{}, err
		}
		if err := c.Fabric().SetDiskRates(64 << 30); err != nil {
			return recoveryResult{}, err
		}
		rng := rand.New(rand.NewSource(7))
		payload := make([]byte, blockB)
		for i := 0; i < stripes*k; i++ {
			rng.Read(payload)
			client := topology.NodeID(rng.Intn(c.Topology().Nodes()))
			if _, err := c.WriteBlock(client, payload); err != nil {
				return recoveryResult{}, err
			}
		}
		if _, err := c.NameNode().FlushOpenStripes(); err != nil {
			return recoveryResult{}, err
		}
		if _, err := c.RaidNode().EncodeAll(); err != nil {
			return recoveryResult{}, err
		}
		if err := c.Fabric().SetAllRates(linkBs); err != nil {
			return recoveryResult{}, err
		}
		if err := c.Fabric().SetDiskRates(2 * linkBs); err != nil {
			return recoveryResult{}, err
		}
		var injectors []interface{ Close() }
		if frac > 0 {
			nodes := c.Topology().Nodes()
			for a := 0; a+1 < nodes; a += 2 {
				inj, err := c.Fabric().InjectTraffic(topology.NodeID(a), topology.NodeID(a+1), frac*linkBs)
				if err != nil {
					return recoveryResult{}, err
				}
				injectors = append(injectors, inj)
			}
		}
		defer func() {
			for _, inj := range injectors {
				inj.Close()
			}
		}()
		dead := busiestNode(c)
		if dead < 0 {
			return recoveryResult{}, fmt.Errorf("%s: nothing encoded", name)
		}
		c.NameNode().MarkDead(dead)
		stats, err := c.RecoverNode(context.Background(), dead)
		if err != nil {
			return recoveryResult{}, fmt.Errorf("%s: %w", name, err)
		}
		repaired := stats.BlocksRepaired + stats.ParityRepaired
		if repaired == 0 {
			return recoveryResult{}, fmt.Errorf("%s: busiest node lost nothing", name)
		}
		return recoveryResult{
			Name:                   name,
			RackAware:              rackAware,
			InjectedFrac:           frac,
			DeadNode:               int(dead),
			BlocksRepaired:         stats.BlocksRepaired,
			ParityRepaired:         stats.ParityRepaired,
			MBPerSec:               stats.ThroughputMBps(),
			CrossRackBytesPerBlock: float64(stats.CrossRackBytes) / float64(repaired),
			TotalBytesPerBlock:     float64(stats.TotalBytes) / float64(repaired),
			Seconds:                stats.Duration.Seconds(),
		}, nil
	}

	var naive0, two0 recoveryResult
	for _, mode := range []struct {
		name      string
		rackAware bool
	}{{"naive", false}, {"twolevel", true}} {
		for _, frac := range []float64{0, 0.4} {
			r, err := run(fmt.Sprintf("%s_bg%.1f", mode.name, frac), mode.rackAware, frac)
			if err != nil {
				return err
			}
			if frac == 0 {
				if mode.rackAware {
					two0 = r
				} else {
					naive0 = r
				}
			}
			snap.Results = append(snap.Results, r)
		}
	}
	if naive0.CrossRackBytesPerBlock > 0 {
		snap.CrossRackReduction = 1 - two0.CrossRackBytesPerBlock/naive0.CrossRackBytesPerBlock
	}
	if naive0.MBPerSec > 0 {
		snap.RecoverySpeedup = two0.MBPerSec / naive0.MBPerSec
	}

	if err := writeSnapshot(out, snap); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("earbench: wrote %s (recovery speedup %.2fx, cross-rack bytes/block -%.1f%%)\n",
			out, snap.RecoverySpeedup, snap.CrossRackReduction*100)
	}
	return nil
}

// busiestNode returns the live node holding the most data blocks of encoded
// stripes, or -1 when nothing is encoded. Parity holders are deliberately
// excluded: data placement is seed-deterministic across separately built
// clusters while parity assignment is not, and the bench needs every cell
// to kill the same node.
func busiestNode(c *hdfs.Cluster) topology.NodeID {
	nn := c.NameNode()
	load := make(map[topology.NodeID]int)
	for _, sid := range nn.EncodedStripes() {
		sm, err := nn.Stripe(sid)
		if err != nil {
			continue
		}
		for _, b := range sm.Info.Blocks {
			meta, err := nn.Block(b)
			if err != nil || meta.Aborted {
				continue
			}
			for _, node := range meta.Nodes {
				if !nn.IsDead(node) {
					load[node]++
				}
			}
		}
	}
	best, bestLoad := topology.NodeID(-1), 0
	for node, l := range load {
		if l > bestLoad || (l == bestLoad && best >= 0 && node < best) {
			best, bestLoad = node, l
		}
	}
	return best
}
