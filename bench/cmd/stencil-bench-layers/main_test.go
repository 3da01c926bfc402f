package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nustencil/bench"
	"nustencil/internal/trace"
)

// TestWorkloadsTiny runs every workload's traced run at a tiny scale:
// the recomposed paths must match Execute bit for bit, nothing may fail,
// the span file must pass trace.CheckChrome, and exactly the per-layer
// metrics BENCHMARK.json names must be emitted.
func TestWorkloadsTiny(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range doc.PerLayer {
		want[m.Name] = true
	}
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.json")
			var out bytes.Buffer
			if err := run(&out, w.Tiny(), 1, bench.ReferenceSeconds, path); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res bench.Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result document: %v", err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("metric %s not emitted", name)
				}
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("metric %s emitted but not listed in BENCHMARK.json", name)
				}
			}
			spans, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := trace.CheckChrome(spans)
			if err != nil {
				t.Fatal(err)
			}
			if st.Spans < 10 {
				t.Errorf("span file holds %d spans", st.Spans)
			}
		})
	}
}
