package main

import (
	"strings"
	"testing"
)

func mkBaseline(ns map[string]float64) *baseline {
	b := &baseline{}
	for name, v := range ns {
		b.Benchmarks = append(b.Benchmarks, record{Name: name, Package: ".", NsPerOp: v})
	}
	return b
}

func TestDiffFlagsRegressionsBeyondThreshold(t *testing.T) {
	oldB := mkBaseline(map[string]float64{
		"BenchmarkStable":  100,
		"BenchmarkFaster":  100,
		"BenchmarkSlower":  100,
		"BenchmarkBarely":  100,
		"BenchmarkRemoved": 50,
	})
	newB := mkBaseline(map[string]float64{
		"BenchmarkStable": 100,
		"BenchmarkFaster": 40,
		"BenchmarkSlower": 150, // +50%: regression at a 10% threshold
		"BenchmarkBarely": 109, // +9%: within threshold
		"BenchmarkAdded":  30,
	})
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 10); got != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", got, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkSlower", "REGRESSION",
		"BenchmarkRemoved", "removed",
		"BenchmarkAdded", "added",
		"+50.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(strings.Replace(out, "BenchmarkSlower", "", 1)+"", "BenchmarkSlower") {
		t.Fatalf("BenchmarkSlower listed more than once:\n%s", out)
	}
	// The barely-slower bench must not be marked.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "BenchmarkBarely") && strings.Contains(line, "REGRESSION") {
			t.Fatalf("within-threshold bench marked as regression: %s", line)
		}
	}
}

func TestDiffThresholdIsConfigurable(t *testing.T) {
	oldB := mkBaseline(map[string]float64{"BenchmarkX": 100})
	newB := mkBaseline(map[string]float64{"BenchmarkX": 120})
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 30); got != 0 {
		t.Fatalf("+20%% flagged at a 30%% threshold:\n%s", sb.String())
	}
	sb.Reset()
	if got := diffBaselines(&sb, oldB, newB, 5); got != 1 {
		t.Fatalf("+20%% not flagged at a 5%% threshold:\n%s", sb.String())
	}
}

func TestDiffOutputIsDeterministic(t *testing.T) {
	oldB := mkBaseline(map[string]float64{"BenchmarkB": 1, "BenchmarkA": 2, "BenchmarkC": 3})
	newB := mkBaseline(map[string]float64{"BenchmarkC": 3, "BenchmarkA": 2, "BenchmarkB": 1})
	var a, b strings.Builder
	diffBaselines(&a, oldB, newB, 10)
	diffBaselines(&b, oldB, newB, 10)
	if a.String() != b.String() {
		t.Fatal("diff output differs across runs")
	}
	ia := strings.Index(a.String(), "BenchmarkA")
	ib := strings.Index(a.String(), "BenchmarkB")
	ic := strings.Index(a.String(), "BenchmarkC")
	if !(ia < ib && ib < ic) {
		t.Fatalf("rows not sorted by name:\n%s", a.String())
	}
}

func TestDiffGatesAllocGrowth(t *testing.T) {
	// allocs/op regresses only past BOTH 2% and 8 allocations; ns/op is
	// unchanged everywhere, so every mark comes from the allocs gate.
	allocs := map[string][2]float64{
		"BenchmarkSmallPct":   {1000, 1015}, // +15 but +1.5%
		"BenchmarkBigPct":     {1000, 1025}, // +25 and +2.5%
		"BenchmarkFewAllocs":  {100, 107},   // +7%, but only +7
		"BenchmarkBoth":       {100, 110},   // +10 and +10%
		"BenchmarkFewer":      {1000, 500},
		"BenchmarkFromZero":   {0, 9}, // +9 from none
		"BenchmarkZeroToFew":  {0, 8},
		"BenchmarkUnchanged0": {0, 0},
	}
	oldB, newB := &baseline{}, &baseline{}
	for name, a := range allocs {
		oldB.Benchmarks = append(oldB.Benchmarks, record{Name: name, Package: ".", NsPerOp: 100, AllocsOp: a[0]})
		newB.Benchmarks = append(newB.Benchmarks, record{Name: name, Package: ".", NsPerOp: 100, AllocsOp: a[1]})
	}
	var sb strings.Builder
	if got := diffBaselines(&sb, oldB, newB, 75); got != 3 {
		t.Fatalf("regressions = %d, want 3\n%s", got, sb.String())
	}
	flagged := map[string]bool{"BenchmarkBigPct": true, "BenchmarkBoth": true, "BenchmarkFromZero": true}
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[1], "Benchmark") {
			continue
		}
		if marked := strings.Contains(line, "ALLOCS REGRESSION"); marked != flagged[fields[1]] {
			t.Errorf("%s: allocs regression marked = %v, want %v: %s", fields[1], marked, flagged[fields[1]], line)
		}
	}
}
