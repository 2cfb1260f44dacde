package hdfs

// Two-level rack-aware reconstruction, the default for degraded reads,
// block repair and node recovery. The naive gather downloads k whole
// survivor blocks to one node and decodes centrally — the exact cross-rack
// bottleneck the paper's EAR placement eliminates for encoding but never
// for repair. Following the rack-aware regenerating-code observation (Hou,
// Lee, Shum, Hu), reconstruction is a single GF(256) dot product over k
// survivors, so each survivor rack can fold its local survivors into one
// partial sum (decode-row coefficients from the coder's inversion cache)
// and ship exactly one partial across the core. The chain planner
// (placement.PlanPipeline, generalized here from parity rows to decode
// rows) orders the hops rack-contiguously with the target's rack last, and
// the hops walk the block chunk by chunk over real fabric streams
// (RapidRAID-style pipelining), so a chain of h hops costs about
// (h + chunks - 1) chunk times instead of h block times. Each hop charges
// its local disk reads ahead of the upstream partial on a read-ahead
// goroutine, so disk time overlaps the receive. Nothing is stored until
// the whole chain has succeeded: a canceled repair commits nothing.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"ear/internal/blockstore"
	"ear/internal/fabric"
	"ear/internal/gf256"
	"ear/internal/placement"
	"ear/internal/telemetry"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// repairStripePos reconstructs stripe position pos (data or parity) into
// out for target: through the two-level chain by default, through the
// naive gather (the HDFS-RAID baseline) when Config.GatherRepair or
// SequentialDataPath selects it. Both paths produce bit-identical content.
// Hop spans hang off the span carried by ctx.
func (c *Cluster) repairStripePos(ctx context.Context, sm *StripeMeta, pos int, target topology.NodeID, out []byte, tr *repairTraffic) error {
	if c.cfg.GatherRepair || c.cfg.SequentialDataPath {
		return c.gatherRepairInto(ctx, sm, pos, target, out, tr)
	}
	return c.pipelineRepairInto(ctx, sm, pos, target, out, tr)
}

// repairPosKey returns the store key for a stripe position: the data block
// for positions below k, the stripe parity above.
func (c *Cluster) repairPosKey(sm *StripeMeta, pos int) blockstore.Key {
	if pos < c.cfg.K {
		return DataKey(sm.Info.Blocks[pos])
	}
	return ParityKey(sm.Info.ID, pos-c.cfg.K)
}

// survivorCopy names one stored copy of a stripe position: position pos as
// held by node.
type survivorCopy struct {
	pos  int
	node topology.NodeID
}

// positionHolders returns the live holders of stripe position i, minus the
// copies already found missing or corrupt, and whether the position is a
// known zero that survives without a holder (short-stripe padding, or an
// aborted member encoded as zeros).
func (c *Cluster) positionHolders(sm *StripeMeta, i int, bad map[survivorCopy]bool) ([]topology.NodeID, bool, error) {
	var nodes []topology.NodeID
	switch {
	case i < len(sm.Info.Blocks):
		live, err := c.nn.LiveReplicas(sm.Info.Blocks[i])
		if err != nil {
			return nil, false, err
		}
		if len(live) == 0 {
			meta, err := c.nn.Block(sm.Info.Blocks[i])
			if err != nil {
				return nil, false, err
			}
			return nil, meta.Aborted, nil
		}
		nodes = live
	case i < c.cfg.K:
		return nil, true, nil
	default:
		node := sm.Plan.Parity[i-c.cfg.K]
		if c.nn.IsDead(node) {
			return nil, false, nil
		}
		nodes = []topology.NodeID{node}
	}
	kept := nodes[:0]
	for _, n := range nodes {
		if !bad[survivorCopy{i, n}] {
			kept = append(kept, n)
		}
	}
	return kept, false, nil
}

// planRepairChain plans the chain reconstructing pos at target, skipping
// the copies in bad. When the position itself still has a good live copy
// the chain degenerates to a copy from its nearest holder (a unit decode
// row). Otherwise the survivors are the first k positions ascending (data
// before parity, mirroring the central decoder's pickSurvivors); known
// zeros survive for free with no hop. It returns the planned hops and the
// decode coefficient of every stripe position (zero for non-survivors).
func (c *Cluster) planRepairChain(sm *StripeMeta, pos int, target topology.NodeID, bad map[survivorCopy]bool) ([]placement.PipelineHop, []byte, error) {
	k, n := c.cfg.K, c.cfg.N
	holders := make([][]topology.NodeID, n)
	coef := make([]byte, n)
	own, _, err := c.positionHolders(sm, pos, bad)
	if err != nil {
		return nil, nil, err
	}
	if len(own) > 0 {
		holders[pos], coef[pos] = own, 1
	} else {
		indices := make([]int, 0, k)
		for i := 0; i < n && len(indices) < k; i++ {
			if i == pos {
				continue
			}
			nodes, zero, err := c.positionHolders(sm, i, bad)
			if err != nil {
				return nil, nil, err
			}
			if len(nodes) == 0 && !zero {
				continue // lost, not a survivor
			}
			holders[i] = nodes
			indices = append(indices, i)
		}
		if len(indices) < k {
			return nil, nil, fmt.Errorf("%w: stripe %d position %d: only %d of %d survivors available",
				ErrNoReplica, sm.Info.ID, pos, len(indices), k)
		}
		row, err := c.coder.DecodeRow(indices, pos)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range indices {
			coef[i] = row[j]
		}
	}
	hops, err := placement.PlanPipeline(c.top, holders, target)
	if err != nil {
		return nil, nil, fmt.Errorf("stripe %d: %w", sm.Info.ID, err)
	}
	return hops, coef, nil
}

// repairStage is one hop of the chain at runtime: its node, the survivor
// positions it folds and their blocks (pooled, read before the chain
// starts). The terminal receive-only stage at the target has none.
type repairStage struct {
	node      topology.NodeID
	positions []int
	blocks    [][]byte
	// crossIn records whether the inbound partial-sum stream crossed the
	// rack core (set by the stage goroutine, read after the join).
	crossIn bool
}

// loadRepairStages builds the chain's stages from the planned hops,
// reading every hop's local survivors into pooled buffers and appending a
// terminal stage when the chain does not end at the target. A copy that is
// missing or fails its checksum is returned as failed (nothing else held)
// so the caller re-plans without it, as the gather treats it as erased.
func (c *Cluster) loadRepairStages(sm *StripeMeta, hops []placement.PipelineHop, target topology.NodeID) ([]*repairStage, *survivorCopy, error) {
	stages := make([]*repairStage, 0, len(hops)+1)
	for _, h := range hops {
		dn, err := c.DataNodeOf(h.Node)
		if err != nil {
			c.releaseStages(stages)
			return nil, nil, err
		}
		st := &repairStage{node: h.Node, positions: h.Positions}
		stages = append(stages, st)
		for _, p := range h.Positions {
			buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
			if err := dn.Store.GetInto(c.repairPosKey(sm, p), buf); err != nil {
				c.bufPool.Put(buf)
				c.releaseStages(stages)
				return nil, &survivorCopy{p, h.Node}, nil
			}
			st.blocks = append(st.blocks, buf)
		}
	}
	if len(stages) > 0 && stages[len(stages)-1].node != target {
		stages = append(stages, &repairStage{node: target})
	}
	return stages, nil, nil
}

// releaseStages returns the stages' survivor buffers to the pool.
func (c *Cluster) releaseStages(stages []*repairStage) {
	for _, st := range stages {
		for _, b := range st.blocks {
			c.bufPool.Put(b)
		}
	}
}

// pipelineRepairInto reconstructs stripe position pos into out at target
// through the two-level chain. A survivor copy that turns out missing or
// corrupt is dropped and the chain re-planned, so the chain fails only
// when fewer than k good survivors remain.
func (c *Cluster) pipelineRepairInto(ctx context.Context, sm *StripeMeta, pos int, target topology.NodeID, out []byte, tr *repairTraffic) error {
	if sm.Plan == nil {
		return fmt.Errorf("%w: stripe %d not encoded", ErrUnknownStripe, sm.Info.ID)
	}
	bad := make(map[survivorCopy]bool)
	for {
		hops, coef, err := c.planRepairChain(sm, pos, target, bad)
		if err != nil {
			return err
		}
		stages, failed, err := c.loadRepairStages(sm, hops, target)
		if err != nil {
			return err
		}
		if failed == nil {
			defer c.releaseStages(stages)
			return c.runRepairChain(ctx, sm, stages, coef, out, tr)
		}
		bad[*failed] = true
	}
}

// runRepairChain walks the loaded stages chunk by chunk. Every stage folds
// in place into out, the chain's single accumulator: stage 0 zero-fills
// each chunk, later stages first receive the upstream partial over their
// inbound stream, then add coef·block for their local survivors. The
// ready channels order the stages on every chunk index, so no two stages
// touch one chunk range at once.
func (c *Cluster) runRepairChain(ctx context.Context, sm *StripeMeta, stages []*repairStage, coef, out []byte, tr *repairTraffic) error {
	blockSize := c.cfg.BlockSizeBytes
	if len(stages) == 0 {
		// Every chosen survivor is a known zero (a nearly empty short
		// stripe): the decode dot product over zeros is zero.
		clear(out)
		return nil
	}
	chunk := c.cfg.PipelineChunkBytes
	nChunks := (blockSize + chunk - 1) / chunk
	chunkRange := func(idx int) (int, int) { return idx * chunk, min((idx+1)*chunk, blockSize) }

	// ready[s] carries chunk indices whose partial sum stage s may take up
	// (stage 0 starts from zeros). Buffered to nChunks so a fast upstream
	// never blocks; the group context covers abandonment.
	ready := make([]chan int, len(stages))
	for s := range ready {
		ready[s] = make(chan int, nChunks)
	}
	for idx := 0; idx < nChunks; idx++ {
		ready[0] <- idx
	}
	close(ready[0])

	parent := telemetry.SpanFromContext(ctx)
	g, gctx := workgroup.WithContext(ctx)
	for s := range stages {
		s, st := s, stages[s]
		var onDisk chan struct{}
		if len(st.positions) > 0 {
			onDisk = make(chan struct{}, nChunks)
			g.Go(func() error { return c.readAhead(gctx, st, onDisk) })
		}
		g.Go(func() error {
			hop := parent.ChildTrack("raidnode.repair-hop").
				Arg(telemetry.ComponentArg, "raidnode").
				Arg("stripe", strconv.FormatInt(int64(sm.Info.ID), 10)).
				Arg("node", strconv.Itoa(int(st.node))).
				Arg("hop", strconv.Itoa(s)).
				Arg("members", strconv.Itoa(len(st.positions)))
			defer hop.End()
			var in *fabric.Stream
			if s > 0 {
				var err error
				in, err = c.fab.OpenStream(gctx, stages[s-1].node, st.node)
				if err != nil {
					return err
				}
				defer in.Close()
				st.crossIn = in.Cross()
			}
			for {
				var idx int
				var ok bool
				select {
				case idx, ok = <-ready[s]:
				case <-gctx.Done():
					return gctx.Err()
				}
				if !ok {
					if s+1 < len(stages) {
						close(ready[s+1])
					}
					return nil
				}
				lo, hi := chunkRange(idx)
				if in != nil {
					if err := in.Send(gctx, hi-lo); err != nil {
						return err
					}
				} else {
					clear(out[lo:hi])
				}
				if onDisk != nil {
					select {
					case <-onDisk:
					case <-gctx.Done():
						return gctx.Err()
					}
					for pi, p := range st.positions {
						if cf := coef[p]; cf != 0 {
							gf256.MulAddSlice(cf, st.blocks[pi][lo:hi], out[lo:hi])
						}
					}
				}
				if s+1 < len(stages) {
					ready[s+1] <- idx
				}
			}
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	// Account the chained transfers: every inbound hop shipped one partial
	// block, crossing the core where the planned chain crossed racks.
	for _, st := range stages[1:] {
		if st.crossIn {
			tr.addCross(int64(blockSize))
		} else {
			tr.addIntra(int64(blockSize))
		}
	}
	return nil
}

// readAhead charges a stage's local survivor reads on its disk stream one
// chunk at a time, independently of the stage's upstream receive, and
// signals each chunk on onDisk (buffered to the chunk count, so it never
// blocks). Disk time thus overlaps the inbound partial: a stage's
// per-chunk cost is the larger of the two, not their sum.
func (c *Cluster) readAhead(ctx context.Context, st *repairStage, onDisk chan<- struct{}) error {
	disk, err := c.fab.OpenStream(ctx, st.node, st.node)
	if err != nil {
		return err
	}
	defer disk.Close()
	blockSize, chunk := c.cfg.BlockSizeBytes, c.cfg.PipelineChunkBytes
	for lo := 0; lo < blockSize; lo += chunk {
		if err := disk.Send(ctx, len(st.positions)*(min(lo+chunk, blockSize)-lo)); err != nil {
			return err
		}
		onDisk <- struct{}{}
	}
	return nil
}

// recoveryThroughputMBps converts repaired bytes over a wall-clock span to
// MB/s (0 for a degenerate span).
func recoveryThroughputMBps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
