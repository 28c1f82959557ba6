// Command perfbench is the repository's benchmark. It runs one workload
// (pal-decode, serve or churn) for a host-time budget, checks that the
// system's outputs are correct, and prints every metric by name with its
// unit and kind (host or simulated). The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// With -trace 0 the metrics are the end-to-end set, measured with tracing
// off; with -trace 1 they are the per-layer set, taken from a separate
// traced run of the same workload (spans, a CPU profile, and isolated layer
// fixtures timed from outside).
//
// Build and run it from the repository root through the wrapper, which
// keeps every build product inside the checkout:
//
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
//
// README.md in this directory lists every metric, the layer map and the
// reasons behind each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: pal-decode, serve or churn")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "host seconds to measure")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the Chrome trace file of a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	fmt.Printf("perfbench: workload %s, seed %d, %d s, trace %d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("why: %s\n", w.why)

	var (
		ms      []metric
		summary runSummary
		err     error
	)
	if *trace == 0 {
		var s *series
		s, err = measure(w, *seed, budget, nil)
		if len(s.passes) > 0 {
			summary = s.summary()
			ms = endToEnd(w, s)
		}
	} else {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		ms, summary, err = perLayer(w, *seed, budget, path)
		if err == nil {
			fmt.Printf("trace: %s\n", path)
		}
	}
	printTable(ms)
	correct := err == nil
	if err != nil {
		fmt.Printf("INCORRECT: %v\n", err)
		summary.failed++
		if summary.attempted < summary.failed {
			summary.attempted = summary.failed
		}
	}
	line, jerr := resultJSON(correct, summary, ms)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// metric is one named measurement. Host metrics are medians of host-time
// samples; simulated metrics are exact functions of workload and seed.
type metric struct {
	name  string
	value float64
	unit  string
	host  bool
	// tableOnly metrics are printed in the table but left out of the JSON
	// line, which holds only metrics every workload has; na marks one that
	// does not apply to this workload.
	tableOnly, na bool
}

// runSummary counts workload passes: attempted passes and passes whose
// correctness check failed.
type runSummary struct {
	attempted, failed int
}

func printTable(ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Printf("%-30s %18s  %-8s %s\n", "metric", "value", "unit", "kind")
	for _, m := range ms {
		kind := "sim"
		if m.host {
			kind = "host"
		}
		if m.tableOnly {
			kind += " (table only)"
		}
		v := "n/a"
		if !m.na {
			v = fmt.Sprintf("%.6g", m.value)
		}
		fmt.Printf("%-30s %18s  %-8s %s\n", m.name, v, m.unit, kind)
	}
}

// resultJSON renders the last output line.
func resultJSON(correct bool, s runSummary, ms []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		if !m.tableOnly {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return string(b), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
