package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/fabric"
	"ear/internal/hdfs"
	"ear/internal/metalog"
	"ear/internal/netcfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

const mib = 1 << 20

// scale sizes one cycle of a workload. Runs use the defaults in workloads;
// the smoke tests shrink them.
type scale struct {
	stripes     int // transition, recovery: stripes written at set-up
	reads       int // transition: reads of encoded blocks; recovery: degraded reads
	quietWrites int // recovery: writes on the quiet fabric
	recoveries  int // transition: the first this many cycles recover a node
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	bs    int
	scale scale
	cycle func(w workload, seed int64, idx int, traced bool, led *ledger) (*cycle, error)
	// link and disk are the shaped fabric's rates in bytes per second.
	link, disk float64
	// nominal is the mean measured time of a cycle on the reference host,
	// transition's recoveries included; a run of --seconds makes
	// seconds/nominal cycles, so parent and change measure the same work on
	// the same cluster seeds.
	nominal time.Duration
	// clusterSeed seeds the cluster's own randomness (placement). It is
	// part of the fixed configuration, like the geometry: run i's cycle j
	// uses seed j+1 whatever --seed is, while --seed drives the inputs
	// (payload bytes, client nodes, which blocks are read).
	clusterSeed int64
}

var workloads = map[string]workload{
	"transition": {name: "transition", bs: 256 << 10, link: 4 << 20, disk: 8 << 20,
		cycle: transitionCycle, scale: scale{stripes: 72, reads: 8, recoveries: 2}, nominal: 4500 * time.Millisecond},
	"recovery": {name: "recovery", bs: 256 << 10, link: 4 << 20, disk: 8 << 20,
		cycle: recoveryCycle, scale: scale{stripes: 48, reads: 4, quietWrites: 8}, nominal: 6800 * time.Millisecond},
}

// cycle is what one set-up plus its measured phases produced.
type cycle struct {
	setup    time.Duration
	measured time.Duration
	cpu      time.Duration
	// work is the user payload the measured phases wrote, read, encoded or
	// repaired: the denominator of the CPU cost.
	work int64

	encode      hdfs.EncodeStats
	encodeWall  time.Duration
	encodeCross int64 // cross-rack bytes of the encode alone

	// writes are the latencies the write figures summarize; writeOps
	// counts every completed write, for the write rate.
	writes     []time.Duration
	writeOps   int
	writeSecs  float64 // mean active time of the writing clients
	reads      []time.Duration
	recovery   hdfs.RecoveryStats
	lost       int // members lost with the dead node
	overhead   float64
	heapPerBlk float64

	blocks  int
	stripes int
	events  uint64
	stored  int64 // bytes on live DataNodes at the end of the cycle

	classBytes map[fabric.LinkClass]int64
	classWait  map[fabric.LinkClass]float64

	meta     metalog.Stats
	fsyncP50 float64
	poolHit  float64
	auditNs  float64
	progNs   float64
	trace    *traceReport // traced cycles only
}

// encodeMBps is the measured encode's data MiB per second of wall time.
func (cy *cycle) encodeMBps() float64 {
	return ratio(float64(cy.encode.EncodedBytes)/mib, cy.encodeWall.Seconds())
}

func newCycle() *cycle {
	return &cycle{
		classBytes: make(map[fabric.LinkClass]int64),
		classWait:  make(map[fabric.LinkClass]float64),
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase runs one measured phase, charging its wall time, CPU time and
// per-link-class fabric traffic to the cycle. It first collects the garbage
// earlier phases left, as testing.B does before timing, so a short phase
// does not pay for its predecessor's collection.
func (cy *cycle) phase(e *env, fn func() error) error {
	runtime.GC()
	snap := e.c.Fabric().Snapshot()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	cy.measured += time.Since(t0)
	cy.cpu += cpuTime() - cpu0
	d := e.c.Fabric().Snapshot().Sub(snap)
	for k, v := range d.ClassBytes {
		cy.classBytes[k] += v
	}
	for k, v := range d.ClassWaitSeconds {
		cy.classWait[k] += v
	}
	return err
}

// timed adds fn's wall time to the cycle's set-up time.
func (cy *cycle) timed(fn func() error) error {
	t0 := time.Now()
	err := fn()
	cy.setup += time.Since(t0)
	return err
}

// finish records the end-of-cycle state: storage, heap, journal and layer
// counters, and on traced cycles the span attribution and observer replay.
func (cy *cycle) finish(e *env, extra ...spanSource) {
	cy.blocks = len(e.blocks())
	if sms, err := e.stripes(); err == nil {
		cy.stripes = len(sms)
	}
	cy.events = e.jrn.Seq()
	cy.stored = e.storedBytes()
	cy.poolHit = e.c.BufferPool().HitRate()
	if st, ok := e.c.NameNode().MetaStats(); ok {
		cy.meta = st
		h := e.reg.Histogram("metalog_fsync_seconds", "", nil).With()
		if h.Count() > 0 {
			cy.fsyncP50 = h.Quantile(0.5)
		}
	}
	if e.tracer != nil {
		cy.trace = newTraceReport()
		cy.trace.attribute(append([]spanSource{{tracer: e.tracer}}, extra...))
		e.mu.Lock()
		tap := e.tap
		e.mu.Unlock()
		cy.auditNs, cy.progNs = replayObservers(e.c.Topology(), tap)
	}
	// Two collections: the first moves pooled buffers to sync.Pool's victim
	// cache, the second frees them, so the heap is what the cluster holds.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if cy.blocks > 0 {
		cy.heapPerBlk = float64(ms.HeapAlloc) / float64(cy.blocks)
	}
}

// replayObservers times the auditor and the progress tracker by replaying a
// captured event stream through fresh instances, in ns per event.
func replayObservers(top *topology.Topology, evs []events.Event) (auditNs, progNs float64) {
	if len(evs) == 0 {
		return 0, 0
	}
	aud := audit.New(top, audit.Config{Replicas: replicas, C: codeC, CheckCoreRack: true})
	t0 := time.Now()
	for _, ev := range evs {
		aud.Observe(ev)
	}
	auditNs = float64(time.Since(t0).Nanoseconds()) / float64(len(evs))
	prog := progress.New(progress.Config{Replicas: replicas, Policy: "ear"})
	t0 = time.Now()
	for _, ev := range evs {
		prog.Observe(ev)
	}
	progNs = float64(time.Since(t0).Nanoseconds()) / float64(len(evs))
	return auditNs, progNs
}

// encode runs one EncodeAll under a bench root and records its throughput
// and cross-rack bytes. fgCross reports the bytes concurrent foreground
// writers moved across racks, which the encode's figure excludes.
func (cy *cycle) runEncode(e *env, fgCross func() int64) error {
	before := e.c.Fabric().CrossRackBytes()
	fg0 := fgCross()
	sp, ctx := e.root(context.Background(), "encode")
	t0 := time.Now()
	st, err := e.c.RaidNode().EncodeAllCtx(ctx)
	wall := time.Since(t0)
	sp.End()
	if !e.led.op(err, "encode") {
		return err
	}
	cy.encode = st
	cy.encodeWall = wall
	cy.encodeCross = e.c.Fabric().CrossRackBytes() - before - (fgCross() - fg0)
	cy.work += st.EncodedBytes
	return nil
}

// recover kills the node holding the most stripe members and, if degraded
// > 0, first issues that many verified reads of its lost data blocks with
// read, each from a client that holds no member of the block's stripe, on
// the quiet fabric; then it runs a default RecoverNode and checks that
// nothing references the dead node afterwards.
func (cy *cycle) recoverBusiest(e *env, rng *rand.Rand, degraded int, read func(client topology.NodeID, id topology.BlockID) time.Duration) error {
	dead, err := e.busiestNode()
	if !e.led.op(err, "pick busiest node") {
		return err
	}
	e.c.NameNode().MarkDead(dead)
	if degraded > 0 {
		lost := e.lostData(dead)
		rng.Shuffle(len(lost), func(i, j int) { lost[i], lost[j] = lost[j], lost[i] })
		if len(lost) > degraded {
			lost = lost[:degraded]
		}
		err := cy.phase(e, func() error {
			for _, id := range lost {
				client, err := e.remoteClient(rng, id)
				if !e.led.op(err, "pick degraded-read client") {
					continue
				}
				cy.reads = append(cy.reads, read(client, id))
				cy.work += int64(e.bs)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	err = cy.phase(e, func() error {
		sp, ctx := e.root(context.Background(), "recover")
		st, err := e.c.RecoverNode(ctx, dead)
		sp.End()
		if !e.led.op(err, "recover node") {
			return err
		}
		cy.recovery = st
		cy.lost = st.BlocksRepaired + st.ParityRepaired
		cy.work += st.BytesRepaired
		return nil
	})
	if err != nil {
		return err
	}
	e.led.check(cy.lost > 0, "busiest node %d lost no stripe member", dead)
	e.checkNoDeadRefs(dead)
	return nil
}

// liveNode draws a client node that is not dead.
func liveNode(e *env, rng *rand.Rand) topology.NodeID {
	for {
		n := topology.NodeID(rng.Intn(e.c.Topology().Nodes()))
		if !e.c.NameNode().IsDead(n) {
			return n
		}
	}
}

// tenantCross returns a function reporting the cross-rack bytes charged to
// the named tenants.
func tenantCross(e *env, names ...string) func() int64 {
	return func() int64 {
		var sum int64
		for _, row := range e.c.Tenants().Snapshot() {
			for _, n := range names {
				if row.Tenant == n {
					sum += row.CrossRackBytes
				}
			}
		}
		return sum
	}
}

func noCross() int64 { return 0 }

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// writers runs n closed-loop foreground clients, each under its own tenant
// and each sending its next write only after the previous one returned,
// until stop is closed. It returns the pooled latencies of the writes issued
// before bulk was closed, the count of all completed writes and the
// clients' mean active seconds.
func (e *env) writers(seed int64, n int, stop, bulk <-chan struct{}) ([]time.Duration, int, float64) {
	var mu sync.Mutex
	var lats []time.Duration
	var ops int
	var secs float64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			ctx := tenant.NewContext(context.Background(), fgTenant(i))
			t0 := time.Now()
			var mine []time.Duration
			done := 0
			for seq := 0; !closed(stop); seq++ {
				inBulk := !closed(bulk)
				_, lat, err := e.write(ctx, liveNode(e, rng), payloadKey(seed, 1+i, seq), "write")
				if e.led.op(err, "foreground write") {
					done++
					if inBulk {
						mine = append(mine, lat)
					}
				}
			}
			active := time.Since(t0)
			mu.Lock()
			lats = append(lats, mine...)
			ops += done
			secs += active.Seconds() / float64(n)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return lats, ops, secs
}

// bulkShare is the share of transition's stripes whose encoding ends the
// encode's bulk, the window its write latency figures cover.
const bulkShare = 0.75

// transitionCycle is the paper's Experiment A.1/A.2 at testbed scale: one
// default EncodeAll on the shaped fabric while two closed-loop clients
// write blocks under their own tenants, then verified reads of encoded
// blocks and, on the first few cycles, the recovery of the busiest node.
func transitionCycle(w workload, seed int64, idx int, traced bool, led *ledger) (*cycle, error) {
	cy := newCycle()
	var e *env
	rng := rand.New(rand.NewSource(seed))
	err := cy.timed(func() error {
		var err error
		if e, err = newEnv(w, true, false, traced, led); err != nil {
			return err
		}
		if err := e.setShaped(false); err != nil {
			return err
		}
		if err := e.preload(seed, w.scale.stripes*codeK, func() topology.NodeID { return liveNode(e, rng) }); err != nil {
			return err
		}
		return e.setShaped(true)
	})
	if e != nil {
		defer e.close()
	}
	if err != nil {
		return nil, err
	}
	e.traceOn()

	// The write latency figures cover the writes issued in the encode's
	// bulk, before bulkShare of its stripes are encoded. Its last map tasks
	// leave the fabric nearly idle, and a closed-loop client issues most of
	// its writes in that tail, so a cycle's median would fall between the
	// contended and the idle level and move from run to run.
	sms, err := e.stripes()
	if err != nil {
		return nil, err
	}
	bulkEnd := int64(math.Ceil(bulkShare * float64(len(sms))))
	bulk := make(chan struct{})
	var encoded atomic.Int64
	unsub := e.jrn.Subscribe(func(ev events.Event) {
		if ev.Type == events.StripeEncoded && encoded.Add(1) == bulkEnd {
			close(bulk)
		}
	})
	const fgClients = 2
	err = cy.phase(e, func() error {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			cy.writes, cy.writeOps, cy.writeSecs = e.writers(seed, fgClients, stop, bulk)
		}()
		err := cy.runEncode(e, tenantCross(e, fgTenant(0), fgTenant(1)))
		close(stop)
		<-done
		cy.work += int64(cy.writeOps) * int64(w.bs)
		return err
	})
	unsub()
	if err != nil {
		return nil, err
	}
	// Encode the foreground blocks too, at full speed and unmeasured, so
	// the checks see a completed transition.
	var fgDownloads int
	err = cy.timed(func() error {
		return e.untraced(func() error {
			if err := e.setShaped(false); err != nil {
				return err
			}
			if _, err := e.c.NameNode().FlushOpenStripes(); err != nil {
				return err
			}
			st, err := e.c.RaidNode().EncodeAll()
			if !led.op(err, "encode foreground blocks") {
				return err
			}
			fgDownloads = st.CrossRackDownloads
			return e.setShaped(true)
		})
	})
	if err != nil {
		return nil, err
	}
	cy.overhead = e.checkTransition(cy.encode.CrossRackDownloads + fgDownloads)

	ids := e.blocks()
	err = cy.phase(e, func() error {
		for i := 0; i < w.scale.reads; i++ {
			lat, _ := e.read(context.Background(), liveNode(e, rng), ids[rng.Intn(len(ids))])
			cy.reads = append(cy.reads, lat)
			cy.work += int64(w.bs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The recovery is the recovery workload's subject; transition recovers
	// on its first few cycles only, so every metric is measured and the rest
	// of the run goes to the contended encode.
	if idx < w.scale.recoveries {
		if err := cy.recoverBusiest(e, rng, 0, nil); err != nil {
			return nil, err
		}
	}
	cy.finish(e)
	return cy, nil
}

// recoveryCycle is the full-node recovery behind a netcfs server on
// loopback, with durable metadata: set-up writes one-block files at full
// speed through the cluster's namespace; then, on the quiet shaped fabric,
// it measures file writes from one netcfs client and an EncodeAll with no
// foreground load;
// it then kills the node holding the most members and measures degraded
// reads, through netcfs, of files whose data block was lost, followed by a
// default RecoverNode.
func recoveryCycle(w workload, seed int64, _ int, traced bool, led *ledger) (*cycle, error) {
	cy := newCycle()
	var e *env
	var fc *fsClient
	rng := rand.New(rand.NewSource(seed))
	files := make(map[topology.BlockID]string)
	err := cy.timed(func() error {
		var err error
		if e, err = newEnv(w, true, true, traced, led); err != nil {
			return err
		}
		if fc, err = e.serveNetcfs(); err != nil {
			return err
		}
		if err := e.setShaped(false); err != nil {
			return err
		}
		// In process rather than through netcfs: set-up time is then the
		// cluster's own write path, not loopback round trips.
		ns := e.c.Namespace()
		ctx := tenant.NewContext(context.Background(), bulkTenant)
		buf := make([]byte, w.bs)
		for i := 0; i < w.scale.stripes*codeK; i++ {
			path, key := fmt.Sprintf("/bulk/%06d", i), payloadKey(seed, 0, i)
			fill(buf, key)
			err := ns.Create(path)
			if err == nil {
				err = ns.AppendCtx(ctx, liveNode(e, rng), path, buf)
			}
			if err == nil {
				err = ns.Close(path)
			}
			if err == nil {
				err = e.registerFile(path, key, files)
			}
			if err != nil {
				return fmt.Errorf("preload %s: %w", path, err)
			}
		}
		if _, err := e.c.NameNode().FlushOpenStripes(); err != nil {
			return err
		}
		return e.setShaped(true)
	})
	if fc != nil {
		defer fc.close()
	}
	if e != nil {
		defer e.close()
	}
	if err != nil {
		return nil, err
	}
	e.traceOn()
	var sources []spanSource
	if traced {
		sources = append(sources, fc.traceOn(e))
	}

	fc.c.Tenant = fgTenant(0)
	err = cy.phase(e, func() error {
		t0 := time.Now()
		for i := 0; i < w.scale.quietWrites; i++ {
			path := fmt.Sprintf("/quiet/%06d", i)
			lat, err := fc.writeFile(e, liveNode(e, rng), path, payloadKey(seed, 1, i), files)
			if e.led.op(err, "quiet write") {
				cy.writes = append(cy.writes, lat)
			}
		}
		cy.writeOps, cy.writeSecs = len(cy.writes), time.Since(t0).Seconds()
		cy.work += int64(cy.writeOps) * int64(w.bs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := cy.timed(func() error {
		_, err := e.c.NameNode().FlushOpenStripes()
		return err
	}); err != nil {
		return nil, err
	}
	if err := cy.phase(e, func() error { return cy.runEncode(e, noCross) }); err != nil {
		return nil, err
	}
	cy.overhead = e.checkTransition(cy.encode.CrossRackDownloads)
	degraded := func(client topology.NodeID, id topology.BlockID) time.Duration {
		lat, _ := fc.readFile(e, client, files[id], id)
		return lat
	}
	if err := cy.recoverBusiest(e, rng, w.scale.reads, degraded); err != nil {
		return nil, err
	}
	cy.finish(e, sources...)
	return cy, nil
}

// fsClient is one netcfs client connection to a loopback server in front of
// the cluster.
type fsClient struct {
	srv    *netcfs.Server
	c      *netcfs.Client
	tracer *telemetry.Tracer // traced cycles: the client's own tracer
}

// serveNetcfs starts a netcfs server on loopback in front of e's cluster,
// with e's registry, and dials one client connection to it.
func (e *env) serveNetcfs() (*fsClient, error) {
	srv, err := netcfs.Serve(e.c, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.SetTelemetry(e.reg)
	c, err := netcfs.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &fsClient{srv: srv, c: c}, nil
}

func (fc *fsClient) close() {
	fc.c.Close()
	fc.srv.Close()
}

// traceOn installs e's tracer on the server and a tracer of the client's
// own, and returns the client's tracer for the attribution.
func (fc *fsClient) traceOn(e *env) spanSource {
	fc.srv.SetTracer(e.tracer)
	fc.tracer = telemetry.NewTracer()
	fc.tracer.SetLimit(0)
	fc.c.SetTracer(fc.tracer)
	return spanSource{tracer: fc.tracer, client: true}
}

// op runs one RPC under a bench root on the client's own tracer.
func (fc *fsClient) op(class string, fn func() error) (time.Duration, error) {
	var sp *telemetry.Span
	if fc.tracer != nil {
		sp = fc.tracer.Start(benchPrefix + class)
	}
	t0 := time.Now()
	err := fn()
	lat := time.Since(t0)
	sp.End()
	return lat, err
}

// writeFile creates path through netcfs from client, appends one block
// filled from key, closes the file and registers it (registerFile). It
// returns the append's latency.
func (fc *fsClient) writeFile(e *env, client topology.NodeID, path string, key uint64, files map[topology.BlockID]string) (time.Duration, error) {
	buf := make([]byte, e.bs)
	fill(buf, key)
	fc.c.ClientNode = client
	if _, err := fc.op("netcfs-create", func() error { return fc.c.Create(path) }); err != nil {
		return 0, err
	}
	lat, err := fc.op("netcfs-append", func() error { return fc.c.Append(path, buf) })
	if err != nil {
		return 0, err
	}
	if _, err := fc.op("netcfs-close", func() error { return fc.c.CloseFile(path) }); err != nil {
		return 0, err
	}
	return lat, e.registerFile(path, key, files)
}

// registerFile records the payload key of the one-block file path's block
// for the checks, and the block's file in files.
func (e *env) registerFile(path string, key uint64, files map[topology.BlockID]string) error {
	fi, err := e.c.Namespace().Stat(path)
	if err != nil {
		return err
	}
	if len(fi.Blocks) != 1 {
		return fmt.Errorf("%s has %d blocks, want 1", path, len(fi.Blocks))
	}
	e.mu.Lock()
	e.payload[fi.Blocks[0]] = key
	e.mu.Unlock()
	files[fi.Blocks[0]] = path
	return nil
}

// readFile reads the one-block file path, holding block id, through netcfs
// from client and verifies it byte for byte; a read that errors or returns
// other bytes counts as failed.
func (fc *fsClient) readFile(e *env, client topology.NodeID, path string, id topology.BlockID) (time.Duration, bool) {
	e.mu.Lock()
	key, known := e.payload[id]
	e.mu.Unlock()
	fc.c.ClientNode = client
	var data []byte
	lat, err := fc.op("netcfs-read", func() error {
		var err error
		data, err = fc.c.Read(path)
		return err
	})
	if !e.led.op(err, "netcfs read") {
		return lat, false
	}
	return lat, e.led.check(known && matches(data, key, e.bs), "%s read back other bytes than written", path)
}
