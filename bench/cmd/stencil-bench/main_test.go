package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"nustencil/bench"
)

// benchmarkMetrics returns the metric names BENCHMARK.json lists under
// key, read from the repository root.
func benchmarkMetrics(t *testing.T, key string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.Name] = true
	}
	return names
}

// TestWorkloadsTiny runs every workload at a tiny scale and checks the
// printed result: verified, nothing failed, and exactly the end-to-end
// metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	want := benchmarkMetrics(t, "end_to_end")
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, w.Tiny(), 1, bench.ReferenceSeconds); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res bench.Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result document: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			for name := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("metric %s not emitted", name)
				} else if m.Value <= 0 {
					t.Errorf("metric %s = %v, want a positive measurement", name, m.Value)
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("metric %s emitted but not listed in BENCHMARK.json", name)
				}
			}
		})
	}
}
