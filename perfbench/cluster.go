package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ear/internal/events"
	"ear/internal/events/audit"
	"ear/internal/hdfs"
	"ear/internal/progress"
	"ear/internal/telemetry"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// The scaled paper testbed every workload shares: EAR placement over 10
// racks of 2 nodes, 3-way replication, RS(9,6) with at most c=1 block of a
// stripe per rack after encoding.
const (
	racks        = 10
	nodesPerRack = 2
	replicas     = 3
	codeK        = 6
	codeN        = 9
	codeC        = 1

	// unshapedRate lifts shaping for set-up and the CPU-bound workload.
	unshapedRate = 64 << 30
)

// Tenants: set-up data belongs to "bulk"; each foreground client writes
// under its own tenant so its bytes can be told apart from the encode's.
const bulkTenant = "bulk"

func fgTenant(i int) string { return fmt.Sprintf("fg%d", i) }

// ledger counts attempted and failed operations and correctness checks.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// check records one correctness check; a false ok counts as a failed op.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted.Add(1)
	if !ok {
		l.failed.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// op records one attempted operation; a non-nil err counts as failed. what
// is a constant label, so the hot paths format nothing unless they fail.
func (l *ledger) op(err error, what string) bool {
	return l.check(err == nil, "%s: %v", what, err)
}

// env is one cluster wired the way earfsd wires it: a telemetry registry, an
// event journal, the invariant auditor and the progress tracker are always
// attached; the span tracer only on traced cycles. Every A/B knob of
// hdfs.Config keeps its program default.
type env struct {
	c       *hdfs.Cluster
	reg     *telemetry.Registry
	jrn     *events.Journal
	aud     *audit.Auditor
	tracer  *telemetry.Tracer // installed by traceOn after set-up
	traced  bool
	led     *ledger
	bs      int
	metaDir string
	// link and disk are the shaped rates setShaped(true) restores.
	link, disk float64

	mu      sync.Mutex
	payload map[topology.BlockID]uint64 // block -> payload key
	tap     []events.Event              // traced cycles: every published event
	untap   func()
}

// newEnv builds a cluster for w. shaped selects w's link and disk rates;
// durable puts the metadata plane in a fresh log directory with the interval
// fsync policy earfsd uses by default.
func newEnv(w workload, shaped, durable, traced bool, led *ledger) (*env, error) {
	cfg := hdfs.Config{
		Racks:                racks,
		NodesPerRack:         nodesPerRack,
		Policy:               "ear",
		Replicas:             replicas,
		K:                    codeK,
		N:                    codeN,
		C:                    codeC,
		BlockSizeBytes:       w.bs,
		BandwidthBytesPerSec: unshapedRate,
		Seed:                 w.clusterSeed,
	}
	if shaped {
		cfg.BandwidthBytesPerSec = w.link
		cfg.DiskBandwidthBytesPerSec = w.disk
	}
	e := &env{bs: w.bs, link: w.link, disk: w.disk, led: led, traced: traced, payload: make(map[topology.BlockID]uint64)}
	if durable {
		dir, err := os.MkdirTemp("", "perfbench-meta-")
		if err != nil {
			return nil, err
		}
		e.metaDir = dir
		cfg.MetaDir = dir
		cfg.MetaSync = "interval"
		cfg.MetaSnapshotEvery = 100000
	}
	c, err := hdfs.NewCluster(cfg)
	if err != nil {
		e.removeMeta()
		return nil, err
	}
	e.c = c
	e.reg = telemetry.NewRegistry()
	c.SetTelemetry(e.reg)
	e.jrn = events.NewJournal(0)
	c.SetJournal(e.jrn)
	e.aud = audit.New(c.Topology(), audit.Config{Replicas: replicas, C: codeC, CheckCoreRack: true})
	e.aud.Attach(e.jrn)
	prog := progress.New(progress.Config{Replicas: replicas, Policy: "ear"})
	prog.SetTelemetry(e.reg)
	prog.Attach(e.jrn)
	if traced {
		e.untap = e.jrn.Subscribe(func(ev events.Event) {
			e.mu.Lock()
			e.tap = append(e.tap, ev)
			e.mu.Unlock()
		})
	}
	return e, nil
}

// traceOn installs the span tracer once set-up is done, so only measured
// operations are traced.
func (e *env) traceOn() {
	if !e.traced {
		return
	}
	e.tracer = telemetry.NewTracer()
	e.tracer.SetLimit(0) // keep every span: the attribution needs whole trees
	e.c.SetTracer(e.tracer)
}

// untraced runs fn, unmeasured preparation between measured phases, with
// the tracer detached so its spans do not count as orphans.
func (e *env) untraced(fn func() error) error {
	e.c.SetTracer(nil)
	defer e.c.SetTracer(e.tracer)
	return fn()
}

func (e *env) close() {
	if e.untap != nil {
		e.untap()
	}
	e.c.Close()
	e.removeMeta()
}

func (e *env) removeMeta() {
	if e.metaDir != "" {
		os.RemoveAll(e.metaDir)
	}
}

// setShaped switches the fabric between the workload's shaped rates and
// full speed (set-up populates and encodes at full speed).
func (e *env) setShaped(on bool) error {
	link, disk := float64(unshapedRate), float64(unshapedRate)
	if on {
		link, disk = e.link, e.disk
	}
	if err := e.c.Fabric().SetAllRates(link); err != nil {
		return err
	}
	return e.c.Fabric().SetDiskRates(disk)
}

// root opens the benchmark's root span for one operation when tracing, and
// returns the context that carries it.
func (e *env) root(ctx context.Context, class string) (*telemetry.Span, context.Context) {
	if e.tracer == nil {
		return nil, ctx
	}
	sp := e.tracer.Start(benchPrefix + class)
	return sp, telemetry.ContextWithSpan(ctx, sp)
}

// fill writes the deterministic payload for key into buf (splitmix64).
func fill(buf []byte, key uint64) {
	x := key
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	if i < len(buf) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(buf[i:], tail[:])
	}
}

// payloadKey derives a block's payload key from the run seed and a stream
// and sequence number, so the same seed always writes the same bytes.
func payloadKey(seed int64, stream, seq int) uint64 {
	return uint64(seed)*0x100000001b3 ^ uint64(stream)<<40 ^ uint64(seq)
}

// matches reports whether data is exactly the payload written under key.
func matches(data []byte, key uint64, bs int) bool {
	if len(data) != bs {
		return false
	}
	want := make([]byte, bs)
	fill(want, key)
	return bytes.Equal(data, want)
}

// write stores one block from client under tenant and returns its latency.
func (e *env) write(ctx context.Context, client topology.NodeID, key uint64, class string) (topology.BlockID, time.Duration, error) {
	buf := make([]byte, e.bs)
	fill(buf, key)
	sp, ctx := e.root(ctx, class)
	t0 := time.Now()
	id, err := e.c.WriteBlockCtx(ctx, client, buf)
	lat := time.Since(t0)
	sp.End()
	if err == nil {
		e.mu.Lock()
		e.payload[id] = key
		e.mu.Unlock()
	}
	return id, lat, err
}

// read fetches one block to client and verifies it byte for byte; a read
// that errors or returns other bytes counts as failed.
func (e *env) read(ctx context.Context, client topology.NodeID, id topology.BlockID) (time.Duration, bool) {
	e.mu.Lock()
	key, known := e.payload[id]
	e.mu.Unlock()
	sp, ctx := e.root(ctx, "read")
	t0 := time.Now()
	data, err := e.c.ReadBlockCtx(ctx, client, id)
	lat := time.Since(t0)
	sp.End()
	if !e.led.op(err, "read") {
		return lat, false
	}
	return lat, e.led.check(known && matches(data, key, e.bs), "block %d read back other bytes than written", id)
}

// preload writes n blocks at full speed under the bulk tenant from clients
// drawn by rng, then seals the open stripes so every block is a stripe
// member.
func (e *env) preload(seed int64, n int, pick func() topology.NodeID) error {
	ctx := tenant.NewContext(context.Background(), bulkTenant)
	for i := 0; i < n; i++ {
		if _, _, err := e.write(ctx, pick(), payloadKey(seed, 0, i), "preload"); err != nil {
			return fmt.Errorf("preload block %d: %w", i, err)
		}
	}
	_, err := e.c.NameNode().FlushOpenStripes()
	return err
}

// blocks returns every block the benchmark wrote, sorted.
func (e *env) blocks() []topology.BlockID {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]topology.BlockID, 0, len(e.payload))
	for id := range e.payload {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// stripes returns the stripes the benchmark's blocks belong to, sorted.
func (e *env) stripes() ([]*hdfs.StripeMeta, error) {
	nn := e.c.NameNode()
	seen := make(map[topology.StripeID]bool)
	var out []*hdfs.StripeMeta
	for _, id := range e.blocks() {
		m, err := nn.Block(id)
		if err != nil {
			return nil, err
		}
		if m.Stripe < 0 || seen[m.Stripe] {
			continue
		}
		seen[m.Stripe] = true
		sm, err := nn.Stripe(m.Stripe)
		if err != nil {
			return nil, err
		}
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.ID < out[j].Info.ID })
	return out, nil
}

// storedBytes sums the payload held by live DataNodes.
func (e *env) storedBytes() int64 {
	var total int64
	for n := 0; n < e.c.Topology().Nodes(); n++ {
		id := topology.NodeID(n)
		if e.c.NameNode().IsDead(id) {
			continue
		}
		dn, err := e.c.DataNodeOf(id)
		if err == nil {
			total += dn.Store.Bytes()
		}
	}
	return total
}

// checkTransition asserts the post-transition state: every stripe encoded,
// the DataNodes hold exactly the data members plus n-k parities per stripe
// (so storage overhead is n/k for full stripes), the auditor reports no
// ongoing violation and the EAR encodes downloaded nothing across racks. It
// returns the storage overhead: bytes stored per user byte.
func (e *env) checkTransition(crossDownloads int) float64 {
	led := e.led
	sms, err := e.stripes()
	if !led.op(err, "list stripes") {
		return 0
	}
	var members int64
	unencoded := 0
	for _, sm := range sms {
		if !sm.Encoded {
			unencoded++
		}
		members += int64(codeN - codeK)
		for _, b := range sm.Info.Blocks {
			if m, err := e.c.NameNode().Block(b); err == nil && !m.Aborted {
				members++
			}
		}
	}
	user := int64(len(e.blocks())) * int64(e.bs)
	stored := e.storedBytes()
	led.check(unencoded == 0, "%d of %d stripes left unencoded", unencoded, len(sms))
	led.check(stored == members*int64(e.bs), "DataNodes hold %d bytes, want %d (data members plus n-k parities per stripe)", stored, members*int64(e.bs))
	rep := e.aud.Report()
	led.check(len(rep.Ongoing) == 0, "auditor reports %d ongoing violations (first: %+v)", len(rep.Ongoing), firstViolation(rep.Ongoing))
	led.check(crossDownloads == 0, "EAR encode made %d cross-rack downloads", crossDownloads)
	if user == 0 {
		return 0
	}
	return float64(stored) / float64(user)
}

func firstViolation(vs []audit.Violation) any {
	if len(vs) == 0 {
		return nil
	}
	return vs[0]
}

// busiestNode returns the node holding the most stripe members (data and
// parity), lowest ID on ties.
func (e *env) busiestNode() (topology.NodeID, error) {
	sms, err := e.stripes()
	if err != nil {
		return -1, err
	}
	load := make([]int, e.c.Topology().Nodes())
	for _, sm := range sms {
		for _, b := range sm.Info.Blocks {
			m, err := e.c.NameNode().Block(b)
			if err != nil {
				return -1, err
			}
			for _, n := range m.Nodes {
				load[n]++
			}
		}
		if sm.Plan != nil {
			for _, n := range sm.Plan.Parity {
				load[n]++
			}
		}
	}
	best := topology.NodeID(0)
	for n, l := range load {
		if l > load[best] {
			best = topology.NodeID(n)
		}
	}
	return best, nil
}

// lostData returns the data blocks whose every replica was on dead, sorted.
func (e *env) lostData(dead topology.NodeID) []topology.BlockID {
	var out []topology.BlockID
	for _, id := range e.blocks() {
		m, err := e.c.NameNode().Block(id)
		if err != nil {
			continue
		}
		if len(m.Nodes) == 1 && m.Nodes[0] == dead {
			out = append(out, id)
		}
	}
	return out
}

// remoteClient draws a live node that holds no live member of the block's
// stripe, so a degraded read fetches all k survivors over the network.
func (e *env) remoteClient(rng *rand.Rand, id topology.BlockID) (topology.NodeID, error) {
	nn := e.c.NameNode()
	m, err := nn.Block(id)
	if err != nil {
		return -1, err
	}
	sm, err := nn.Stripe(m.Stripe)
	if err != nil {
		return -1, err
	}
	holds := make(map[topology.NodeID]bool)
	for _, b := range sm.Info.Blocks {
		live, err := nn.LiveReplicas(b)
		if err != nil {
			return -1, err
		}
		for _, n := range live {
			holds[n] = true
		}
	}
	if sm.Plan != nil {
		for _, n := range sm.Plan.Parity {
			holds[n] = true
		}
	}
	var cands []topology.NodeID
	for n := 0; n < e.c.Topology().Nodes(); n++ {
		id := topology.NodeID(n)
		if !holds[id] && !nn.IsDead(id) {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return -1, fmt.Errorf("every live node holds a member of stripe %d", sm.Info.ID)
	}
	return cands[rng.Intn(len(cands))], nil
}

// checkNoDeadRefs asserts that after recovery no block replica and no
// parity placement references the dead node.
func (e *env) checkNoDeadRefs(dead topology.NodeID) {
	refs := 0
	for _, id := range e.blocks() {
		m, err := e.c.NameNode().Block(id)
		if !e.led.op(err, "block lookup") {
			return
		}
		for _, n := range m.Nodes {
			if n == dead {
				refs++
			}
		}
	}
	sms, err := e.stripes()
	if !e.led.op(err, "list stripes") {
		return
	}
	for _, sm := range sms {
		if sm.Plan == nil {
			continue
		}
		for _, n := range sm.Plan.Parity {
			if n == dead {
				refs++
			}
		}
	}
	e.led.check(refs == 0, "%d block or parity placements still reference dead node %d after recovery", refs, dead)
}
