// Command perfbench is the repository's benchmark: it runs one named
// workload against the EAR mini-HDFS for a given seed and duration, checks
// that every read returns the bytes written and that every transition and
// recovery leaves a correct layout, and prints every metric by name and
// unit. The workloads, and which layer metric should move which end-to-end
// metric, are described in README.md beside this file.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload transition --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the cycles run untraced and the end-to-end metrics are
// reported; with --trace 1 each untraced cycle is followed by a traced one
// on the same inputs and the per-layer metrics are reported. Earlier lines of standard output carry
// the host stamp and the run's work ledger; the last line is the result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ear/internal/fabric"
	"ear/internal/gf256"
)

var errMismatch = errors.New("reconstructed block differs from the original")

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user or operator of the file system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"encode_mbps", "MiB/s"},
	{"cross_rack_mb_per_stripe", "MiB"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"write_ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"recovery_mbps", "MiB/s"},
	{"repair_cross_rack_mb_per_member", "MiB"},
	{"storage_overhead", "ratio"},
	{"cpu_s_per_gib", "s/GiB"},
	{"heap_bytes_per_block", "B"},
}

// linkClasses are the fabric link classes reported per layer.
var linkClasses = []fabric.LinkClass{
	fabric.ClassNodeUp, fabric.ClassNodeDown, fabric.ClassRackUp, fabric.ClassRackDown, fabric.ClassDisk,
}

// selfSpans are the program spans whose mean self time per span is reported.
var selfSpans = []string{
	"client.write-block", "datanode.pipeline-hop", "client.read-block",
	"namenode.allocate",
	"encode-job", "stripe-selection", "map-task", "download", "raidnode.pipeline-hop",
	"encode", "parity-write", "replica-delete",
	"raidnode.recover-node", "raidnode.repair-block", "raidnode.repair-parity", "raidnode.repair-hop",
}

// netcfsOps are the RPCs the recovery workload issues.
var netcfsOps = []string{"create", "append", "close", "read"}

// opClasses are the bench root span classes whose residual is reported.
var opClasses = []string{
	"write", "read", "encode", "recover",
	"netcfs-create", "netcfs-append", "netcfs-close", "netcfs-read",
}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, op := range netcfsOps {
		out = append(out, metricDef{"netcfs.rpc_self_us." + op, "us"})
	}
	for _, s := range selfSpans {
		out = append(out, metricDef{s + ".self_us", "us"})
	}
	out = append(out,
		metricDef{"namenode.alloc_commit_us", "us"},
		metricDef{"metalog.appends_per_block", "count"},
		metricDef{"metalog.bytes_per_block", "B"},
		metricDef{"metalog.fsyncs", "count"},
		metricDef{"metalog.fsync_p50_us", "us"},
		metricDef{"events.per_block", "count"},
		metricDef{"events.per_stripe", "count"},
		metricDef{"audit.observe_ns_per_event", "ns"},
		metricDef{"progress.observe_ns_per_event", "ns"},
		metricDef{"blockstore.put_us", "us"},
		metricDef{"blockstore.getinto_us", "us"},
		metricDef{"blockstore.stored_mib", "MiB"},
	)
	for _, c := range linkClasses {
		out = append(out,
			metricDef{"fabric." + string(c) + ".mib", "MiB"},
			metricDef{"fabric." + string(c) + ".wait_s", "s"})
	}
	out = append(out,
		metricDef{"raidnode.encoded_stripes", "count"},
		metricDef{"raidnode.cross_rack_downloads", "count"},
		metricDef{"raidnode.pipelined_stripes", "count"},
		metricDef{"repair.total_mib_per_member", "MiB"},
		metricDef{"erasure.encode_into_us", "us"},
		metricDef{"erasure.reconstruct_block_into_us", "us"},
		metricDef{"erasure.decode_row_us", "us"},
		metricDef{"erasure.pool_hit_ratio", "ratio"},
		metricDef{"gf256.muladd_gbps", "GB/s"},
		metricDef{"telemetry.trace_overhead_frac", "ratio"},
		metricDef{"telemetry.orphan_spans", "count"},
	)
	for _, c := range opClasses {
		out = append(out, metricDef{"telemetry.residual_frac." + c, "ratio"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host stamps a run with the environment its numbers came from.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GF256Tier  string `json:"gf256_kernel_tier"`
	FsyncPol   string `json:"metadata_fsync_policy"`
}

// workLedger records what one run did, so runs can be compared by the work
// behind their numbers.
type workLedger struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Trace          bool           `json:"trace"`
	Cycles         int            `json:"cycles"`
	TracedCycles   int            `json:"traced_cycles"`
	MeasuredS      float64        `json:"measured_s"`
	Blocks         int            `json:"blocks"`
	Stripes        int            `json:"stripes"`
	LostMembers    int            `json:"lost_members"`
	DataRepaired   int            `json:"data_repaired"`
	ParityRepaired int            `json:"parity_repaired"`
	JournalEvents  uint64         `json:"journal_events"`
	Writes         latencySummary `json:"writes"`
	Reads          latencySummary `json:"reads"`
	// PerCycle holds each cycle's headline figures, for judging how much of
	// a run's spread comes from single cycles.
	PerCycle []cycleSummary `json:"per_cycle"`
	// Attribution is the traced cycles' wall-time split per op class.
	Attribution map[string]*classReport `json:"attribution,omitempty"`
	// AttributionGap is the largest relative gap between a class's wall
	// time and its self times plus residual (0 up to rounding).
	AttributionGap float64 `json:"attribution_gap,omitempty"`
}

// cycleSummary is one cycle's headline figures.
type cycleSummary struct {
	Traced       bool    `json:"traced,omitempty"`
	SetupS       float64 `json:"setup_s"`
	MeasuredS    float64 `json:"measured_s"`
	EncodeMBps   float64 `json:"encode_mbps"`
	WriteP50ms   float64 `json:"write_p50_ms"`
	WriteRate    float64 `json:"write_ops_per_s"`
	ReadP50ms    float64 `json:"read_p50_ms"`
	RecoveryMBps float64 `json:"recovery_mbps"`
	Lost         int     `json:"lost_members"`
	CPUs         float64 `json:"cpu_s"`
	WorkMiB      float64 `json:"work_mib"`
}

func main() {
	wl := flag.String("workload", "", "workload: transition or recovery")
	seed := flag.Int64("seed", 1, "input seed: the same seed writes the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run: sets how many cycles run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from alternating traced cycles")
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload transition|recovery, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, h, led, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range []struct {
		tag string
		v   any
	}{{"host", h}, {"ledger", led}} {
		b, _ := json.Marshal(line.v)
		fmt.Printf("%s %s\n", line.tag, b)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// minCycles is the fewest set-ups a run makes, so set-up time and every
// per-cycle figure is a median over several.
const minCycles = 3

// cycleCount is how many cycles a run of d makes: d over the workload's
// nominal cycle time, at least minCycles. The count depends on d alone, not
// on how fast the cycles turn out, so every run of a given length does the
// same work on the same cluster seeds.
func cycleCount(w workload, d time.Duration) int {
	n := int((d + w.nominal/2) / w.nominal)
	if n < minCycles {
		n = minCycles
	}
	return n
}

// run executes cycleCount cycles of w. Traced runs pair each untraced cycle
// with a traced one on the same inputs and cluster seed, so the pair differs
// only in tracing.
func run(w workload, seed int64, d time.Duration, traced bool) (*result, host, *workLedger, error) {
	h := host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GF256Tier: gf256.KernelTier(), FsyncPol: "none (in-memory metadata)",
	}
	if w.name == "recovery" {
		h.FsyncPol = "interval"
	}
	led := &ledger{}
	wl := &workLedger{Workload: w.name, Seed: seed, Trace: traced}
	var cycles []*cycle
	var measured time.Duration
	n := cycleCount(w, d)
	if traced {
		n = 2 * ((n + 1) / 2)
	}
	for i := 0; i < n; i++ {
		tracedCycle, idx := false, i
		if traced {
			tracedCycle, idx = i%2 == 1, i/2
		}
		w.clusterSeed = int64(idx) + 1
		cy, err := w.cycle(w, seed*7919+int64(idx), idx, tracedCycle, led)
		if err != nil {
			return nil, h, nil, fmt.Errorf("%s cycle %d: %w", w.name, i, err)
		}
		measured += cy.measured
		cycles = append(cycles, cy)
		wl.PerCycle = append(wl.PerCycle, cycleSummary{
			Traced: tracedCycle, SetupS: cy.setup.Seconds(), MeasuredS: cy.measured.Seconds(),
			EncodeMBps: cy.encodeMBps(), WriteP50ms: summarize(cy.writes).P50ms,
			WriteRate: ratio(float64(cy.writeOps), cy.writeSecs),
			ReadP50ms: summarize(cy.reads).P50ms, RecoveryMBps: cy.recovery.ThroughputMBps(), Lost: cy.lost,
			CPUs: cy.cpu.Seconds(), WorkMiB: float64(cy.work) / mib,
		})
		wl.Cycles++
		if tracedCycle {
			wl.TracedCycles++
		}
		wl.Blocks += cy.blocks
		wl.Stripes += cy.stripes
		wl.LostMembers += cy.lost
		wl.DataRepaired += cy.recovery.BlocksRepaired
		wl.ParityRepaired += cy.recovery.ParityRepaired
		wl.JournalEvents += cy.events
	}
	wl.MeasuredS = measured.Seconds()

	res := &result{Metrics: make(map[string]metricValue)}
	var metrics map[string]float64
	var defs []metricDef
	if traced {
		var err error
		if metrics, err = layerMetrics(w, seed, cycles, wl); err != nil {
			return nil, h, nil, err
		}
		defs = perLayer()
	} else {
		metrics = endToEndMetrics(cycles, wl)
		defs = endToEnd
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	res.Attempted = led.attempted.Load()
	res.Failed = led.failed.Load()
	res.Correct = res.Failed == 0
	return res, h, wl, nil
}

// endToEndMetrics folds untraced cycles into the end-to-end metrics:
// latency percentiles (summarizeCycles), medians of per-cycle set-up time,
// storage overhead and heap, and rates and costs as the run's summed work
// over its summed time. A sum weighs every cycle by its work and averages
// out the cycle-to-cycle noise that a median of a few cycles keeps, and it
// does not fall between the levels of cycles that differ in kind, such as
// transition's cycles with and without a recovery.
func endToEndMetrics(cycles []*cycle, wl *workLedger) map[string]float64 {
	var setup, overhead, heap []float64
	var writeSecs, encSecs, recSecs, cpuSecs float64
	var writes, reads [][]time.Duration
	var encBytes, recBytes, work, writeOps, encCross, encStripes, repCross, repMembers int64
	for _, cy := range cycles {
		setup = append(setup, cy.setup.Seconds())
		cpuSecs += cy.cpu.Seconds()
		work += cy.work
		encBytes += cy.encode.EncodedBytes
		encSecs += cy.encodeWall.Seconds()
		writeOps += int64(cy.writeOps)
		writeSecs += cy.writeSecs
		recBytes += cy.recovery.BytesRepaired
		recSecs += cy.recovery.Duration.Seconds()
		overhead = append(overhead, cy.overhead)
		heap = append(heap, cy.heapPerBlk)
		writes = append(writes, cy.writes)
		reads = append(reads, cy.reads)
		encCross += cy.encodeCross
		encStripes += int64(cy.encode.Stripes)
		repCross += cy.recovery.CrossRackBytes
		repMembers += int64(cy.lost)
	}
	wl.Writes, wl.Reads = summarizeCycles(writes), summarizeCycles(reads)
	return map[string]float64{
		"setup_s":                         median(setup),
		"encode_mbps":                     ratio(float64(encBytes)/mib, encSecs),
		"cross_rack_mb_per_stripe":        ratio(float64(encCross)/mib, float64(encStripes)),
		"write_p50_ms":                    wl.Writes.P50ms,
		"write_tail_ms":                   wl.Writes.TailMs,
		"write_ops_per_s":                 ratio(float64(writeOps), writeSecs),
		"read_p50_ms":                     wl.Reads.P50ms,
		"read_tail_ms":                    wl.Reads.TailMs,
		"recovery_mbps":                   ratio(float64(recBytes)/mib, recSecs),
		"repair_cross_rack_mb_per_member": ratio(float64(repCross)/mib, float64(repMembers)),
		"storage_overhead":                median(overhead),
		"cpu_s_per_gib":                   ratio(cpuSecs, float64(work)/(1<<30)),
		"heap_bytes_per_block":            median(heap),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics folds a traced run into the per-layer metrics: span self
// times and residuals from the traced cycles, layer counters averaged per
// cycle, the tracing overhead from the untraced cycles beside them, and the
// direct lower-layer timings.
func layerMetrics(w workload, seed int64, cycles []*cycle, wl *workLedger) (map[string]float64, error) {
	m := make(map[string]float64)
	tr := newTraceReport()
	var overhead []float64
	var n float64
	var encStripes, crossDl, pipelined, blocks, stripes, events, repTotal, repMembers float64
	var stored, appends, appendBytes, fsyncs, fsyncP50, auditNs, progNs, poolHit float64
	for i, cy := range cycles {
		if cy.trace == nil {
			continue
		}
		overhead = append(overhead, cy.measured.Seconds()/cycles[i-1].measured.Seconds()-1)
		n++
		for class, cr := range cy.trace.Classes {
			acc := tr.Classes[class]
			if acc == nil {
				acc = &classReport{SelfS: make(map[string]float64)}
				tr.Classes[class] = acc
			}
			acc.Ops += cr.Ops
			acc.WallS += cr.WallS
			acc.ResidualS += cr.ResidualS
			for k, v := range cr.SelfS {
				acc.SelfS[k] += v
			}
		}
		for k, v := range cy.trace.SelfS {
			tr.SelfS[k] += v
		}
		for k, v := range cy.trace.Count {
			tr.Count[k] += v
		}
		tr.Orphans += cy.trace.Orphans
		for _, c := range linkClasses {
			m["fabric."+string(c)+".mib"] += float64(cy.classBytes[c]) / mib
			m["fabric."+string(c)+".wait_s"] += cy.classWait[c]
		}
		encStripes += float64(cy.encode.Stripes)
		crossDl += float64(cy.encode.CrossRackDownloads)
		pipelined += float64(cy.encode.PipelinedStripes)
		blocks += float64(cy.blocks)
		stripes += float64(cy.stripes)
		events += float64(cy.events)
		stored += float64(cy.stored)
		repTotal += float64(cy.recovery.TotalBytes)
		repMembers += float64(cy.lost)
		appends += float64(cy.meta.Appends)
		appendBytes += float64(cy.meta.AppendedBytes)
		fsyncs += float64(cy.meta.Fsyncs)
		fsyncP50 += cy.fsyncP50
		auditNs += cy.auditNs
		progNs += cy.progNs
		poolHit += cy.poolHit
	}
	for _, c := range linkClasses {
		m["fabric."+string(c)+".mib"] /= n
		m["fabric."+string(c)+".wait_s"] /= n
	}
	for _, op := range netcfsOps {
		if cr := tr.Classes["netcfs-"+op]; cr != nil && cr.Ops > 0 {
			s := tr.SelfS["client:rpc."+op] + tr.SelfS["rpc."+op]
			m["netcfs.rpc_self_us."+op] = s / float64(cr.Ops) * 1e6
		}
	}
	for _, s := range selfSpans {
		m[s+".self_us"] = tr.selfUs(s)
	}
	for _, c := range opClasses {
		if cr := tr.Classes[c]; cr != nil && cr.WallS > 0 {
			m["telemetry.residual_frac."+c] = cr.ResidualS / cr.WallS
		}
	}
	m["telemetry.orphan_spans"] = float64(tr.Orphans) / n
	m["telemetry.trace_overhead_frac"] = median(overhead)
	m["raidnode.encoded_stripes"] = encStripes / n
	m["raidnode.cross_rack_downloads"] = crossDl / n
	m["raidnode.pipelined_stripes"] = pipelined / n
	m["repair.total_mib_per_member"] = ratio(repTotal/mib, repMembers)
	m["blockstore.stored_mib"] = stored / n / mib
	m["metalog.appends_per_block"] = ratio(appends, blocks)
	m["metalog.bytes_per_block"] = ratio(appendBytes, blocks)
	m["metalog.fsyncs"] = fsyncs / n
	m["metalog.fsync_p50_us"] = fsyncP50 / n * 1e6
	m["events.per_block"] = ratio(events, blocks)
	m["events.per_stripe"] = ratio(events, stripes)
	m["audit.observe_ns_per_event"] = auditNs / n
	m["progress.observe_ns_per_event"] = progNs / n
	m["erasure.pool_hit_ratio"] = poolHit / n

	costs, err := layerCosts(w.bs, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range costs {
		m[k] = v
	}
	wl.Attribution = tr.Classes
	wl.AttributionGap = tr.maxImbalance()
	return m, nil
}
