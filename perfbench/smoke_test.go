package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTablesMatchBenchmarkFile keeps the Go metric and workload tables in
// step with BENCHMARK.json.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json why %q, benchmark why %q", w.Name, w.Why, got.why)
		}
	}
	check := func(kind string, defs []metricDef, listed int, at func(i int) (string, string, string)) {
		if listed != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, listed, len(defs))
			return
		}
		for i, d := range defs {
			if n, u, b := at(i); n != d.name || u != d.unit || b != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", kind, i, n, u, b, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd, len(bf.EndToEnd), func(i int) (string, string, string) {
		m := bf.EndToEnd[i]
		return m.Name, m.Unit, m.Better
	})
	check("per_layer", perLayer, len(bf.PerLayer), func(i int) (string, string, string) {
		m := bf.PerLayer[i]
		return m.Name, m.Unit, m.Better
	})
}

// TestSmokeEveryWorkload runs every workload untraced and traced for a
// minimal length and checks that every named metric is present with its
// unit, that every op was correct, and that the engine prediction holds.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload:  name,
				seed:      7,
				measure:   200 * time.Millisecond,
				trace:     trace,
				minOps:    100,
				setupReps: 2,
				warmup:    50 * time.Millisecond,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			shards := res.Metrics["engine.shards_per_op"].Value
			if (name == "allreduce-bulk") != (shards > 0) {
				t.Errorf("%s: engine.shards_per_op = %v; only allreduce-bulk should shard", name, shards)
			}
			if e := res.Metrics["error_rate"].Value; e != 0 {
				t.Errorf("%s: error_rate = %v", name, e)
			}
		}
	}
}
