package hdfs

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"ear/internal/blockstore"
	"ear/internal/events"
	"ear/internal/fabric"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
	"ear/internal/workgroup"
)

// gatherFanIn bounds the concurrent source fetches of one stripe gather.
const gatherFanIn = 16

// DataKey builds the store key for a data block replica.
func DataKey(id topology.BlockID) blockstore.Key {
	return blockstore.Key{ID: int64(id), Kind: blockstore.Data}
}

// ParityKey builds the store key for parity block idx of a stripe. Stripe
// IDs and parity indices are folded into one ID space.
func ParityKey(stripe topology.StripeID, idx int) blockstore.Key {
	return blockstore.Key{ID: int64(stripe)*1024 + int64(idx), Kind: blockstore.Parity}
}

// transferShaped charges a src->dst transfer of n bytes on the fabric
// without materializing a payload copy; the caller owns the destination
// buffer. Shaping and byte accounting match fabric.TransferCtx exactly
// (that helper is OpenStream + Send + copy), so pooled data paths stay
// indistinguishable from allocating ones on the wire.
func (c *Cluster) transferShaped(ctx context.Context, src, dst topology.NodeID, n int) error {
	st, err := c.fab.OpenStream(ctx, src, dst)
	if err != nil {
		return err
	}
	defer st.Close()
	return st.Send(ctx, n)
}

// copyBlock copies one stored block from src to dst through a pooled
// buffer — checksum-verified read, shaped transfer, store at dst — booking
// the transfer into tr (nil discards). It returns the bytes copied.
func (c *Cluster) copyBlock(ctx context.Context, key blockstore.Key, src, dst topology.NodeID, tr *repairTraffic) (int64, error) {
	srcDN, err := c.DataNodeOf(src)
	if err != nil {
		return 0, err
	}
	dstDN, err := c.DataNodeOf(dst)
	if err != nil {
		return 0, err
	}
	buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
	defer c.bufPool.Put(buf)
	if err := srcDN.Store.GetInto(key, buf); err != nil {
		return 0, err
	}
	st, err := c.fab.OpenStream(ctx, src, dst)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if err := st.Send(ctx, len(buf)); err != nil {
		return 0, err
	}
	tr.addStream(st, int64(len(buf)))
	if err := dstDN.Store.Put(key, buf); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// relocateBlock moves one stored block from src to dst: copyBlock, then
// delete at src. It returns the bytes moved.
func (c *Cluster) relocateBlock(ctx context.Context, key blockstore.Key, src, dst topology.NodeID) (int64, error) {
	n, err := c.copyBlock(ctx, key, src, dst, nil)
	if err != nil {
		return 0, err
	}
	srcDN, err := c.DataNodeOf(src)
	if err != nil {
		return 0, err
	}
	return n, srcDN.Store.Delete(key)
}

// WriteBlock writes one block from the given client node with a background
// context. See WriteBlockCtx.
func (c *Cluster) WriteBlock(client topology.NodeID, data []byte) (topology.BlockID, error) {
	return c.WriteBlockCtx(context.Background(), client, data)
}

// WriteBlockCtx writes one block from the given client node: the NameNode
// allocates the block and decides placement, then the data flows down the
// HDFS replication pipeline (client -> replica 1 -> replica 2 -> ...) in
// fabric chunks, every hop shaped by the fabric. Hops run concurrently —
// while replica 1 forwards chunk i to replica 2 the client is already
// sending chunk i+1 — so an r-way write costs roughly one block transfer
// plus the pipeline fill, not r transfers (Config.SequentialDataPath
// restores the whole-block store-and-forward chain for comparison).
//
// Cancelling ctx aborts the write within one chunk reservation per hop; the
// allocation is then abandoned via NameNode.AbortBlock and no replica is
// committed to any store.
func (c *Cluster) WriteBlockCtx(ctx context.Context, client topology.NodeID, data []byte) (topology.BlockID, error) {
	if len(data) != c.cfg.BlockSizeBytes {
		return 0, fmt.Errorf("%w: block of %d bytes, configured size %d",
			ErrInvalidConfig, len(data), c.cfg.BlockSizeBytes)
	}
	if m := c.metrics(); m != nil {
		defer func(t0 time.Time) { m.writeLat.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	span, ctx := c.opSpan(ctx, "client", "client.write-block")
	span.Arg("node", strconv.Itoa(int(client)))
	defer span.End()
	meta, err := c.nn.AllocateBlockCtx(ctx, len(data))
	if err != nil {
		return 0, err
	}
	span.Arg("block", strconv.FormatInt(int64(meta.ID), 10))
	if c.cfg.SequentialDataPath {
		err = c.writeStoreAndForward(ctx, client, meta, data)
	} else {
		err = c.writePipelined(ctx, client, meta, data)
	}
	if err != nil {
		c.abortWrite(meta)
		return 0, err
	}
	if err := c.nn.CommitBlockCtx(ctx, meta.ID); err != nil {
		return 0, err
	}
	c.acct.Charge(tenant.FromContext(ctx), "write", 1, int64(len(data)))
	return meta.ID, nil
}

// abortWrite abandons a failed write: the allocation is voided on the
// NameNode and any replica a hop already stored is deleted (best effort —
// the block is already unreachable once aborted).
func (c *Cluster) abortWrite(meta *BlockMeta) {
	_ = c.nn.AbortBlock(meta.ID)
	for _, n := range meta.Nodes {
		if dn, err := c.DataNodeOf(n); err == nil {
			dn.Store.Delete(DataKey(meta.ID))
		}
	}
}

// writeStoreAndForward is the legacy data path: each hop receives the whole
// block, stores it, then forwards it to the next replica. An r-way write
// costs r sequential block transfers.
func (c *Cluster) writeStoreAndForward(ctx context.Context, client topology.NodeID, meta *BlockMeta, data []byte) error {
	payload := data
	prev := client
	for _, n := range meta.Nodes {
		var err error
		payload, err = c.fab.TransferCtx(ctx, prev, n, payload)
		if err != nil {
			return err
		}
		dn, err := c.DataNodeOf(n)
		if err != nil {
			return err
		}
		if err := dn.Store.Put(DataKey(meta.ID), payload); err != nil {
			return fmt.Errorf("replica on node %d: %w", n, err)
		}
		c.publishReplicaWritten(ctx, meta.ID, n, len(payload))
		prev = n
	}
	return nil
}

// publishReplicaWritten journals the durable landing of one replica,
// stamped with the context's trace.
func (c *Cluster) publishReplicaWritten(ctx context.Context, id topology.BlockID, n topology.NodeID, size int) {
	j := c.Journal()
	if j == nil {
		return
	}
	ev := events.New(events.ReplicaWritten, "datanode")
	ev.Block = id
	ev.Node = n
	ev.Bytes = int64(size)
	ev.Trace = telemetry.TraceFromContext(ctx)
	j.Publish(ev)
}

// writePipelined streams the block down the replication chain chunk by
// chunk. Hop i owns one fabric stream (previous replica -> replica i) and a
// staging buffer; it forwards each chunk as soon as the upstream hop has
// delivered it, so all hops transfer concurrently. Replicas are committed
// to their stores only after every hop finishes, so a failed or canceled
// write leaves nothing behind.
func (c *Cluster) writePipelined(ctx context.Context, client topology.NodeID, meta *BlockMeta, data []byte) error {
	nHops := len(meta.Nodes)
	if nHops == 0 {
		return fmt.Errorf("%w: block %d placed on no nodes", ErrNoReplica, meta.ID)
	}
	nChunks := (len(data) + fabric.ChunkBytes - 1) / fabric.ChunkBytes
	start := time.Now()

	// ready[i] carries chunk indices whose bytes have landed in hop i's
	// source buffer (the original data for hop 0, hop i-1's staging buffer
	// otherwise). Buffered to nChunks so a fast upstream never blocks; the
	// group context covers abandonment.
	ready := make([]chan int, nHops)
	for i := range ready {
		ready[i] = make(chan int, nChunks)
	}
	for idx := 0; idx < nChunks; idx++ {
		ready[0] <- idx
	}
	close(ready[0])

	bufs := make([][]byte, nHops)
	for i := range bufs {
		bufs[i] = make([]byte, len(data))
	}

	parent := telemetry.SpanFromContext(ctx)
	g, gctx := workgroup.WithContext(ctx)
	for i := 0; i < nHops; i++ {
		i := i
		src := client
		srcBuf := data
		if i > 0 {
			src = meta.Nodes[i-1]
			srcBuf = bufs[i-1]
		}
		dst := meta.Nodes[i]
		g.Go(func() error {
			// Hops run concurrently, so each sits on its own display track;
			// the span belongs to the receiving DataNode.
			hop := parent.ChildTrack("datanode.pipeline-hop").
				Arg(telemetry.ComponentArg, "datanode").
				Arg("node", strconv.Itoa(int(dst))).
				Arg("hop", strconv.Itoa(i))
			defer hop.End()
			st, err := c.fab.OpenStream(gctx, src, dst)
			if err != nil {
				return err
			}
			defer st.Close()
			first := true
			for {
				var idx int
				var ok bool
				select {
				case idx, ok = <-ready[i]:
					if !ok {
						if i+1 < nHops {
							close(ready[i+1])
						}
						return nil
					}
				case <-gctx.Done():
					return gctx.Err()
				}
				lo := idx * fabric.ChunkBytes
				hi := min(lo+fabric.ChunkBytes, len(data))
				if err := st.Send(gctx, hi-lo); err != nil {
					return err
				}
				copy(bufs[i][lo:hi], srcBuf[lo:hi])
				if first && i == nHops-1 {
					first = false
					if m := c.metrics(); m != nil {
						m.pipeFill.Observe(time.Since(start).Seconds())
					}
				}
				if i+1 < nHops {
					ready[i+1] <- idx
				}
			}
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for i, n := range meta.Nodes {
		dn, err := c.DataNodeOf(n)
		if err != nil {
			return err
		}
		if err := dn.Store.Put(DataKey(meta.ID), bufs[i]); err != nil {
			return fmt.Errorf("replica on node %d: %w", n, err)
		}
		c.publishReplicaWritten(ctx, meta.ID, n, len(bufs[i]))
	}
	return nil
}

// chooseReplica picks the replica a reader should use: the reader itself if
// it holds one, else a same-rack replica, else a uniformly random one.
func (c *Cluster) chooseReplica(nodes []topology.NodeID, reader topology.NodeID) (topology.NodeID, error) {
	if len(nodes) == 0 {
		return 0, ErrNoReplica
	}
	readerRack, err := c.top.RackOf(reader)
	if err != nil {
		return 0, err
	}
	var sameRack []topology.NodeID
	for _, n := range nodes {
		if n == reader {
			return n, nil
		}
		rk, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if rk == readerRack {
			sameRack = append(sameRack, n)
		}
	}
	if len(sameRack) > 0 {
		return sameRack[c.randIntn(len(sameRack))], nil
	}
	return nodes[c.randIntn(len(nodes))], nil
}

// ReadBlock reads a block with a background context. See ReadBlockCtx.
func (c *Cluster) ReadBlock(client topology.NodeID, id topology.BlockID) ([]byte, error) {
	return c.ReadBlockCtx(context.Background(), client, id)
}

// ReadBlockCtx reads a block to the client node from its nearest live
// replica. If the block's stripe is encoded and its replica is lost,
// missing or corrupt, the read degrades to erasure-coded reconstruction.
// Cancelling ctx aborts the transfer within one chunk reservation.
func (c *Cluster) ReadBlockCtx(ctx context.Context, client topology.NodeID, id topology.BlockID) ([]byte, error) {
	if m := c.metrics(); m != nil {
		defer func(t0 time.Time) { m.readLat.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	span, ctx := c.opSpan(ctx, "client", "client.read-block")
	span.Arg("block", strconv.FormatInt(int64(id), 10))
	defer span.End()
	live, err := c.nn.LiveReplicas(id)
	if err != nil {
		return nil, err
	}
	if len(live) == 0 {
		return c.DegradedReadCtx(ctx, client, id)
	}
	src, err := c.chooseReplica(live, client)
	if err != nil {
		return nil, err
	}
	dn, err := c.DataNodeOf(src)
	if err != nil {
		return nil, err
	}
	data, err := dn.Store.Get(DataKey(id))
	if err != nil {
		// A missing or corrupt copy of an encoded block is one erasure of
		// its stripe: reconstruct instead.
		if meta, merr := c.nn.Block(id); merr == nil && meta.Encoded {
			return c.DegradedReadCtx(ctx, client, id)
		}
		return nil, err
	}
	out, err := c.fab.TransferCtx(ctx, src, client, data)
	if err == nil {
		c.acct.Charge(tenant.FromContext(ctx), "read", 1, int64(len(out)))
	}
	return out, err
}

// repairTraffic accumulates the network bytes one reconstruction moved,
// split by rack locality. Both repair paths fill it from the streams they
// themselves open (local disk streams excluded), so the count is exact even
// with concurrent repairs in flight — unlike a fabric snapshot delta. A nil
// receiver discards.
type repairTraffic struct {
	mu    sync.Mutex
	cross int64
	total int64
}

// addStream books n bytes delivered over st.
func (t *repairTraffic) addStream(st *fabric.Stream, n int64) {
	if t == nil || st.Local() {
		return
	}
	t.mu.Lock()
	if st.Cross() {
		t.cross += n
	}
	t.total += n
	t.mu.Unlock()
}

// addCross books n bytes that crossed the rack core without a stream
// handle (the pipeline path accounts its chained hops after the join).
func (t *repairTraffic) addCross(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cross += n
	t.total += n
	t.mu.Unlock()
}

// addIntra books n rack-local network bytes.
func (t *repairTraffic) addIntra(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total += n
	t.mu.Unlock()
}

// bytes returns the accumulated (crossRack, total) network bytes.
func (t *repairTraffic) bytes() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cross, t.total
}

// nearestReplica picks the live replica a gatherer should fetch from: the
// gatherer itself if it holds one, else the first replica in the gatherer's
// rack, else the first live replica. Deterministic, unlike chooseReplica's
// randomized read balancing: repair work must pick the same sources on
// every run of a recovery plan.
func (c *Cluster) nearestReplica(live []topology.NodeID, gatherer topology.NodeID, gatherRack topology.RackID) (topology.NodeID, error) {
	pick, local := live[0], false
	for _, n := range live {
		if n == gatherer {
			return n, nil
		}
		if local {
			continue
		}
		r, err := c.top.RackOf(n)
		if err != nil {
			return 0, err
		}
		if r == gatherRack {
			pick, local = n, true
		}
	}
	return pick, nil
}

// stripeSurvivors gathers up to k live blocks of a stripe (data and
// parity), transferring each to the gatherer node. Fetches run concurrently
// in batches of the outstanding need (bounded by gatherFanIn) unless
// Config.SequentialDataPath forces one-at-a-time gathering; in both modes
// survivors in the gatherer's rack are preferred. It returns the blocks
// indexed by stripe position, booking network bytes into tr (nil discards).
func (c *Cluster) stripeSurvivors(ctx context.Context, gatherer topology.NodeID, sm *StripeMeta, tr *repairTraffic) (map[int][]byte, error) {
	if sm.Plan == nil {
		return nil, fmt.Errorf("%w: stripe %d not encoded", ErrUnknownStripe, sm.Info.ID)
	}
	// Parity occupies stripe positions k..n-1 of the code geometry even for
	// short stripes (positions len(Blocks)..k-1 are zero padding).
	k := c.cfg.K
	// Order candidate blocks so survivors in the gatherer's rack come
	// first: each local fetch replaces one cross-rack download (the
	// Section III-D recovery-traffic saving of c > 1).
	gatherRack, err := c.top.RackOf(gatherer)
	if err != nil {
		return nil, err
	}
	type candidate struct {
		node topology.NodeID
		key  blockstore.Key
		pos  int
	}
	var local, remote []candidate
	add := func(cand candidate) error {
		r, err := c.top.RackOf(cand.node)
		if err != nil {
			return err
		}
		if r == gatherRack {
			local = append(local, cand)
		} else {
			remote = append(remote, cand)
		}
		return nil
	}
	for i, b := range sm.Info.Blocks {
		live, err := c.nn.LiveReplicas(b)
		if err != nil {
			return nil, err
		}
		if len(live) == 0 {
			continue
		}
		// Fetch from the live replica closest to the gatherer: taking an
		// arbitrary replica would ignore a rack-local copy whenever it is
		// not listed first, turning an intra-rack fetch into a cross-rack
		// download.
		node, err := c.nearestReplica(live, gatherer, gatherRack)
		if err != nil {
			return nil, err
		}
		if err := add(candidate{node: node, key: DataKey(b), pos: i}); err != nil {
			return nil, err
		}
	}
	for j, node := range sm.Plan.Parity {
		if err := add(candidate{node: node, key: ParityKey(sm.Info.ID, j), pos: k + j}); err != nil {
			return nil, err
		}
	}
	candidates := append(local, remote...)

	present := make(map[int][]byte, k)
	var mu sync.Mutex
	fetch := func(ctx context.Context, cand candidate) error {
		if c.nn.IsDead(cand.node) {
			return nil
		}
		dn, err := c.DataNodeOf(cand.node)
		if err != nil {
			return err
		}
		buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
		if err := dn.Store.GetInto(cand.key, buf); err != nil {
			c.bufPool.Put(buf)
			return nil // missing or corrupt: treat as erased
		}
		st, err := c.fab.OpenStream(ctx, cand.node, gatherer)
		if err != nil {
			c.bufPool.Put(buf)
			return err
		}
		err = st.Send(ctx, len(buf))
		st.Close()
		if err != nil {
			c.bufPool.Put(buf)
			return err
		}
		tr.addStream(st, int64(len(buf)))
		mu.Lock()
		present[cand.pos] = buf
		mu.Unlock()
		return nil
	}
	// Fetch exactly as many candidates as positions are still missing; a
	// candidate that turns out erased (store miss) shrinks the batch's
	// yield and the loop tops up from the remaining candidates.
	for next := 0; len(present) < k && next < len(candidates); {
		batch := candidates[next:min(next+k-len(present), len(candidates))]
		next += len(batch)
		if c.cfg.SequentialDataPath {
			for _, cand := range batch {
				if err := fetch(ctx, cand); err != nil {
					c.releaseSurvivors(present, sm)
					return nil, err
				}
			}
			continue
		}
		if m := c.metrics(); m != nil {
			m.gatherPar.Observe(float64(len(batch)))
		}
		g, gctx := workgroup.WithContext(ctx)
		g.SetLimit(gatherFanIn)
		for _, cand := range batch {
			cand := cand
			g.Go(func() error { return fetch(gctx, cand) })
		}
		if err := g.Wait(); err != nil {
			c.releaseSurvivors(present, sm)
			return nil, err
		}
	}
	return present, nil
}

// padStripe extends the survivor map for the positions of a short stripe
// (fewer than k data blocks, zero-padded at encode time). All padding
// positions share the cluster's immutable zero block; the decode kernels
// only read their inputs.
func (c *Cluster) padStripe(present map[int][]byte, sm *StripeMeta) {
	for i := len(sm.Info.Blocks); i < c.cfg.K; i++ {
		present[i] = c.zeroBlock
	}
}

// releaseSurvivors returns the gathered survivor buffers to the pool.
// Padding positions added by padStripe hold the shared zero block and are
// skipped.
func (c *Cluster) releaseSurvivors(present map[int][]byte, sm *StripeMeta) {
	for pos, buf := range present {
		if pos >= len(sm.Info.Blocks) && pos < c.cfg.K {
			continue
		}
		c.bufPool.Put(buf)
	}
}

// DegradedRead reconstructs a lost block with a background context. See
// DegradedReadCtx.
func (c *Cluster) DegradedRead(client topology.NodeID, id topology.BlockID) ([]byte, error) {
	return c.DegradedReadCtx(context.Background(), client, id)
}

// DegradedReadCtx reconstructs a lost block from its stripe (Section VI's
// degraded read) through the configured reconstruction path, with the
// reading client as the chain's terminal stage.
func (c *Cluster) DegradedReadCtx(ctx context.Context, client topology.NodeID, id topology.BlockID) ([]byte, error) {
	out := make([]byte, c.cfg.BlockSizeBytes)
	if err := c.degradedReadInto(ctx, client, id, out); err != nil {
		return nil, err
	}
	return out, nil
}

// degradedReadInto reconstructs a lost block into the caller's buffer. The
// survivors live in pooled buffers and fold through the coder's cached
// decode rows, so steady-state reconstructions allocate only metadata.
func (c *Cluster) degradedReadInto(ctx context.Context, client topology.NodeID, id topology.BlockID, out []byte) error {
	meta, err := c.nn.Block(id)
	if err != nil {
		return err
	}
	if meta.Stripe < 0 {
		return fmt.Errorf("%w: block %d lost before encoding", ErrNoReplica, id)
	}
	sm, err := c.nn.Stripe(meta.Stripe)
	if err != nil {
		return err
	}
	pos := slices.Index(sm.Info.Blocks, id)
	if pos < 0 {
		return fmt.Errorf("%w: block %d missing from stripe %d", ErrUnknownStripe, id, meta.Stripe)
	}
	return c.repairStripePos(ctx, sm, pos, client, out, nil)
}

// gatherRepairInto reconstructs stripe position pos (data or parity) into
// out on the naive gather path: download any k whole survivor blocks to the
// gatherer, then decode centrally. It is HDFS-RAID's repair, kept as the
// baseline (Config.GatherRepair) the two-level chain is measured against.
func (c *Cluster) gatherRepairInto(ctx context.Context, sm *StripeMeta, pos int, gatherer topology.NodeID, out []byte, tr *repairTraffic) error {
	present, err := c.stripeSurvivors(ctx, gatherer, sm, tr)
	if err != nil {
		return err
	}
	defer c.releaseSurvivors(present, sm)
	c.padStripe(present, sm)
	return c.coder.ReconstructBlockInto(present, pos, out)
}

// RepairBlock rebuilds a lost block with a background context. See
// RepairBlockCtx.
func (c *Cluster) RepairBlock(id topology.BlockID) (topology.NodeID, error) {
	return c.RepairBlockCtx(context.Background(), id)
}

// RepairBlockCtx rebuilds a lost block onto a fresh live node and updates
// the NameNode, the RaidNode recovery path. It returns the chosen node,
// picked by RecoverNode's deterministic target rule.
func (c *Cluster) RepairBlockCtx(ctx context.Context, id topology.BlockID) (topology.NodeID, error) {
	meta, err := c.nn.Block(id)
	if err != nil {
		return 0, err
	}
	if meta.Stripe < 0 {
		return 0, fmt.Errorf("%w: block %d has no stripe", ErrNoReplica, id)
	}
	sm, err := c.nn.Stripe(meta.Stripe)
	if err != nil {
		return 0, err
	}
	target, release, err := c.pickRepairTarget(sm)
	if err != nil {
		return 0, err
	}
	defer release()
	if _, err := c.repairBlockOnto(ctx, id, sm, target); err != nil {
		return 0, err
	}
	return target, nil
}

// repairBlockOnto rebuilds lost data block id of stripe sm onto target:
// reconstruction over the configured path, a staged Put (nothing is stored
// or published until the rebuild fully succeeded, so a canceled repair
// commits nothing), the metadata update, lifecycle events, telemetry, and
// per-tenant charging. It returns the repair's network traffic.
func (c *Cluster) repairBlockOnto(ctx context.Context, id topology.BlockID, sm *StripeMeta, target topology.NodeID) (*repairTraffic, error) {
	t0 := time.Now()
	if m := c.metrics(); m != nil {
		defer func() { m.repairLat.Observe(time.Since(t0).Seconds()) }()
	}
	span, ctx := c.opSpan(ctx, "raidnode", "raidnode.repair-block")
	span.Arg("block", strconv.FormatInt(int64(id), 10))
	defer span.End()
	// Repair is background work with no requester context: run it under the
	// block's recorded owner, so the fabric charges every survivor download
	// and partial-sum hop to that tenant at the same accounting point as
	// any foreground stream, and the op charge below matches.
	ctx = tenant.NewContext(ctx, c.acct.Owner(id))
	meta, err := c.nn.Block(id)
	if err != nil {
		return nil, err
	}
	pos := slices.Index(sm.Info.Blocks, id)
	if pos < 0 {
		return nil, fmt.Errorf("%w: block %d missing from stripe %d", ErrUnknownStripe, id, sm.Info.ID)
	}
	if j := c.Journal(); j != nil {
		ev := events.New(events.RepairStarted, "raidnode")
		ev.Block, ev.Stripe, ev.Node = id, sm.Info.ID, target
		ev.Trace = telemetry.TraceFromContext(ctx)
		j.Publish(ev)
	}
	// The rebuilt block lives in a pooled buffer; the store keeps its own
	// copy on Put, so the buffer is recycled on return.
	buf := c.bufPool.Get(c.cfg.BlockSizeBytes)
	defer c.bufPool.Put(buf)
	tr := &repairTraffic{}
	if err := c.repairStripePos(ctx, sm, pos, target, buf, tr); err != nil {
		return nil, err
	}
	dn, err := c.DataNodeOf(target)
	if err != nil {
		return nil, err
	}
	// The target holds no live member of the stripe, so anything stored
	// under the key is a stale copy from before the node last died; the
	// repair supersedes it.
	_ = dn.Store.Delete(DataKey(id))
	if err := dn.Store.Put(DataKey(id), buf); err != nil {
		return nil, err
	}
	if err := c.nn.UpdateBlockLocation(id, []topology.NodeID{target}); err != nil {
		return nil, err
	}
	if j := c.Journal(); j != nil {
		// Commit the repair as a relocation of the block's prior holder
		// (typically a dead node) onto the target, as the parity repair
		// does, so stream-tracking models swap the two in one event and
		// never count both in the stripe's racks. Any further superseded
		// holders are retired first; RepairFinished then closes the
		// lifecycle without changing the modeled layout.
		trace := telemetry.TraceFromContext(ctx)
		old := slices.DeleteFunc(meta.Nodes, func(n topology.NodeID) bool { return n == target })
		for i := len(old) - 1; i > 0; i-- {
			del := events.New(events.ReplicaDeleted, "raidnode")
			del.Block, del.Stripe, del.Node = id, sm.Info.ID, old[i]
			del.Trace = trace
			j.Publish(del)
		}
		if len(old) > 0 {
			rel := events.New(events.ReplicaRelocated, "raidnode")
			rel.Block, rel.Stripe, rel.Node, rel.Peer = id, sm.Info.ID, old[0], target
			rel.Bytes = int64(len(buf))
			rel.Trace = trace
			j.Publish(rel)
		}
		ev := events.New(events.RepairFinished, "raidnode")
		ev.Block, ev.Stripe, ev.Node = id, sm.Info.ID, target
		ev.Bytes = int64(len(buf))
		ev.Trace = trace
		j.Publish(ev)
	}
	c.observeRepair(tr, int64(len(buf)), time.Since(t0))
	c.acct.Charge(tenant.FromContext(ctx), "repair", 1, int64(len(buf)))
	return tr, nil
}

// observeRepair folds one finished repair into the repair telemetry.
func (c *Cluster) observeRepair(tr *repairTraffic, repaired int64, d time.Duration) {
	m := c.metrics()
	if m == nil {
		return
	}
	cross, _ := tr.bytes()
	m.repairCross.Add(float64(cross))
	if s := d.Seconds(); s > 0 {
		m.repairMBps.Observe(float64(repaired) / (1 << 20) / s)
	}
}
