package main

// Smoke tests: every experiment command must run to completion without
// error on its default arguments. The expensive simulation commands are
// trimmed via flags where possible and skipped under -short; the
// single-chain simulation transcripts are also pinned to goldens.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"
)

func TestCommandRegistry(t *testing.T) {
	if len(commands) < 10 {
		t.Fatalf("only %d commands registered", len(commands))
	}
	seen := map[string]bool{}
	for _, c := range commands {
		if c.name == "" || c.brief == "" || c.run == nil {
			t.Errorf("malformed command %+v", c)
		}
		if seen[c.name] {
			t.Errorf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
}

func runCmd(t *testing.T, name string, args ...string) {
	t.Helper()
	for _, c := range commands {
		if c.name == name {
			if err := c.run(args); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return
		}
	}
	t.Fatalf("command %q not registered", name)
}

// stdoutOf returns a campaign that runs a registered command and captures
// what it prints to os.Stdout (the package's tests do not run in parallel,
// so swapping the global is safe).
func stdoutOf(name string, args ...string) func(w *bytes.Buffer) error {
	return func(w *bytes.Buffer) error {
		r, pw, err := os.Pipe()
		if err != nil {
			return err
		}
		done := make(chan error)
		go func() { _, err := io.Copy(w, r); done <- err }()
		saved := os.Stdout
		os.Stdout = pw
		runErr := func() error {
			for _, c := range commands {
				if c.name == name {
					return c.run(args)
				}
			}
			return fmt.Errorf("command %q not registered", name)
		}()
		os.Stdout = saved
		pw.Close()
		if err := <-done; err != nil {
			return err
		}
		r.Close()
		return runErr
	}
}

// checkCommandGolden runs a command twice, requires byte-identical output
// and compares it against testdata/<golden>.
func checkCommandGolden(t *testing.T, golden, name string, args ...string) {
	t.Helper()
	checkGolden(t, golden, runTwice(t, name, stdoutOf(name, args...)))
}

func TestAnalysisCommands(t *testing.T) {
	runCmd(t, "blocksizes")
	runCmd(t, "blocksizes", "-granularity", "8")
	runCmd(t, "fig8", "-max", "6")
	runCmd(t, "fig11")
	runCmd(t, "table1")
	runCmd(t, "breakeven")
	runCmd(t, "refinement", "-eta", "4", "-tokens", "16")
	runCmd(t, "fig6", "-eta", "8")
}

func TestMemOptCommand(t *testing.T) {
	runCmd(t, "memopt", "-window", "3")
}

func TestSharingSweepCommand(t *testing.T) {
	runCmd(t, "sharing-sweep")
}

func TestDotCommand(t *testing.T) {
	runCmd(t, "dot", "-eta", "4")
	runCmd(t, "dot", "-eta", "4", "-sdf")
}

func TestRotationCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("rotation runs the PAL simulation")
	}
	checkCommandGolden(t, "rotation.golden", "rotation", "-seconds", "0.008")
}

func TestRingVsCrossbarCommand(t *testing.T) {
	runCmd(t, "ring-vs-crossbar", "-words", "64")
}

func TestFlowControlCommand(t *testing.T) {
	runCmd(t, "ablation-flowcontrol", "-words", "256")
}

func TestSimulationCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation commands are expensive")
	}
	checkCommandGolden(t, "paldemo.golden", "paldemo", "-seconds", "0.01")
	checkCommandGolden(t, "utilization.golden", "utilization", "-seconds", "0.01")
	checkCommandGolden(t, "utilization_sw_state.golden", "utilization", "-sw-state")
	checkCommandGolden(t, "ablation_spacecheck.golden", "ablation-spacecheck")
	checkCommandGolden(t, "ablation_arbiter.golden", "ablation-arbiter")
}

func TestFaultsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault campaign runs many scenarios")
	}
	runCmd(t, "faults", "-horizon", "50000")
}

// TestFaultCampaignDeterministic is an acceptance criterion: the whole
// campaign — simulation, recovery, report — must be byte-identical across
// two runs (no map iteration, no wall clock, no randomness anywhere).
func TestFaultCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the campaign twice")
	}
	var a, b bytes.Buffer
	if err := faultCampaign(&a, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := faultCampaign(&b, 100_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("campaign output differs between two identical runs")
	}
}

func TestAdmitCommand(t *testing.T) {
	runCmd(t, "admit", "-horizon", "60000")
}

// TestAdmitDeterministic is an acceptance criterion: the scripted admission
// campaign — live platform, incremental re-solves, staged mode transitions,
// canary readmission, event log — must be byte-identical across two runs.
func TestAdmitDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := admitCampaign(&a, defaultAdmitScript, 60_000, 2); err != nil {
		t.Fatal(err)
	}
	if err := admitCampaign(&b, defaultAdmitScript, 60_000, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("admission campaign output differs between two identical runs")
	}
	for _, want := range []string{"add s5: admitted", "remove s4: admitted", "readmit s4: admitted", "canary-pass s4", "rejected (infeasible)"} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("campaign output missing %q", want)
		}
	}
}

func TestFailoverCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("the failover campaign runs four scenarios")
	}
	runCmd(t, "failover", "-horizon", "60000")
}

// TestFailoverGolden is an acceptance criterion: the failover campaign —
// wedged-chain verdicts, stream migration, cost-vs-bound accounting,
// conformance checks, trace rendering — must be byte-identical across runs
// AND byte-identical to the checked-in golden file (see golden_test.go for
// the -update regeneration workflow).
func TestFailoverGolden(t *testing.T) {
	got := runTwice(t, "failover", func(w *bytes.Buffer) error {
		return failoverCampaign(w, 60_000, nil)
	})
	checkGolden(t, "failover.golden", got)
	for _, want := range []string{
		"within-bound=true",
		"re-solved for the standby chain",
		"not triggered (per-stream recovery handled the fault)",
		"zero lost or duplicated",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("campaign output missing %q", want)
		}
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, c := range commands {
		if c.name == "fig6" {
			if err := c.run([]string{"-definitely-not-a-flag"}); err == nil {
				t.Error("bad flag accepted")
			}
		}
	}
}
