// Command spread summarizes benchmark runs: given files holding the
// output of stencil-bench or stencil-bench-layers runs (the result
// document is each file's last line), it prints every metric's sample
// count, median, quartiles and spread — the interquartile range as a
// share of the median, the noise a regression bound must exceed.
//
//	spread runs/parent-*.out
//	spread runs/change-*.out
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nustencil/bench"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: spread FILE...")
		os.Exit(2)
	}
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spread:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, files []string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	for _, f := range files {
		res, err := lastResult(f)
		if err != nil {
			return err
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%-40s %4s %12s %12s %12s %8s\n", "metric", "n", "q1", "median", "q3", "spread")
	for _, n := range names {
		vs := values[n]
		q1, q2, q3 := bench.Quartiles(vs)
		fmt.Fprintf(w, "%-40s %4d %12.5g %12.5g %12.5g %8.3f  %s\n", n, len(vs), q1, q2, q3, bench.Spread(vs), units[n])
	}
	return w.Flush()
}

// lastResult parses the result document on the last non-empty line of f.
func lastResult(f string) (bench.Result, error) {
	var res bench.Result
	data, err := os.ReadFile(f)
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result document: %w", f, err)
	}
	return res, nil
}
