package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"ear/internal/hdfs"
	"ear/internal/tenant"
	"ear/internal/topology"
)

// declared reads the metric declarations from BENCHMARK.json.
func declared(t *testing.T) (workloadNames []string, e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return workloadNames, e2e, layer
}

// smokeScale shrinks every workload so one cycle takes about a second.
var smokeScale = map[string]scale{
	"transition": {stripes: 6, reads: 3, recoveries: 1},
	"recovery":   {stripes: 6, reads: 3, quietWrites: 3},
}

// TestSmokeEmitsDeclaredMetrics runs a short untraced and traced run of
// every workload and checks that each passes its correctness checks and
// emits exactly the declared metrics with their declared units; end-to-end
// values must be nonzero and a traced run's attribution must add up.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	names, e2e, layer := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			t.Fatalf("declared workload %q is not implemented", name)
		}
		w.scale = smokeScale[name]
		for _, traced := range []bool{false, true} {
			res, _, wl, err := run(w, 3, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layer
				if wl.AttributionGap > 1e-9 {
					t.Errorf("%s: self times plus residual miss the wall time by %g", name, wl.AttributionGap)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, declared %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s: metric %s unit %q, declared %q", name, m, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestCorruptedReadCountsAsFailed damages every replica of a block with
// blockstore.Store.Corrupt and checks that the benchmark's verified reads,
// of the block and through netcfs of the file holding it, count as failed,
// while a clean block and file still pass.
func TestCorruptedReadCountsAsFailed(t *testing.T) {
	led := &ledger{}
	e, err := newEnv(workload{bs: 4 << 10, clusterSeed: 1}, false, false, false, led)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	fc, err := e.serveNetcfs()
	if err != nil {
		t.Fatal(err)
	}
	defer fc.close()
	ctx := tenant.NewContext(context.Background(), bulkTenant)
	clean, _, err := e.write(ctx, 0, payloadKey(1, 0, 0), "write")
	if err != nil {
		t.Fatal(err)
	}
	damaged, _, err := e.write(ctx, 0, payloadKey(1, 0, 1), "write")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[topology.BlockID]string)
	if _, err := fc.writeFile(e, 0, "/clean", payloadKey(1, 1, 0), files); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.writeFile(e, 0, "/damaged", payloadKey(1, 1, 1), files); err != nil {
		t.Fatal(err)
	}
	fileBlock := make(map[string]topology.BlockID)
	for id, path := range files {
		fileBlock[path] = id
	}
	if _, ok := e.read(ctx, 1, clean); !ok {
		t.Fatal("clean block failed verification")
	}
	if _, ok := fc.readFile(e, 1, "/clean", fileBlock["/clean"]); !ok {
		t.Fatal("clean file failed verification")
	}
	for _, id := range []topology.BlockID{damaged, fileBlock["/damaged"]} {
		meta, err := e.c.NameNode().Block(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range meta.Nodes {
			dn, err := e.c.DataNodeOf(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := dn.Store.Corrupt(hdfs.DataKey(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := e.read(ctx, 1, damaged); ok {
		t.Fatal("read of a corrupted block passed verification")
	}
	if _, ok := fc.readFile(e, 1, "/damaged", fileBlock["/damaged"]); ok {
		t.Fatal("netcfs read of a corrupted file passed verification")
	}
	if got := led.failed.Load(); got != 2 {
		t.Fatalf("failed ops = %d, want 2", got)
	}
}

// TestHDMedian checks the incomplete beta function against closed forms and
// the Harrell-Davis median on symmetric samples.
func TestHDMedian(t *testing.T) {
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.5, 5, 5, 0.5},
		{0.3, 2, 3, 0.3483}, // 1 - (1-x)^3 (1+3x)
		{0.9, 0.5, 0.5, 2 / math.Pi * math.Asin(math.Sqrt(0.9))}, // arcsine law
	} {
		if got := betaCDF(c.x, c.a, c.b); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	for _, n := range []int{1, 2, 9, 1999} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got, want := hdMedian(xs), float64(n-1)/2; math.Abs(got-want) > 1e-9 {
			t.Errorf("hdMedian(0..%d) = %v, want %v", n-1, got, want)
		}
	}
}
