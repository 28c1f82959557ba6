package main

// Golden-file harness shared by every campaign command whose output is an
// acceptance artifact (faults, admit, failover, chaos, and the single-chain
// simulation transcripts of main_test.go). Each campaign must
// be byte-identical run-to-run AND byte-identical to the checked-in golden.
// After verifying a behavioural change that legitimately moves the output,
// regenerate every golden with
//
//	go test ./cmd/accelshare -run 'Golden|SimulationCommands|RotationCommand' -update
//
// and review the diff before committing.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files with current campaign output")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead when -update is set. On mismatch it reports the first divergent
// line so the failure is actionable without a manual diff.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("output diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output diverged from %s: got %d lines, want %d lines", path, len(gotLines), len(wantLines))
}

// runTwice runs a campaign twice and fails unless the two outputs are
// byte-identical (no map iteration, no wall clock, no randomness), then
// returns the output for the golden comparison.
func runTwice(t *testing.T, name string, campaign func(w *bytes.Buffer) error) []byte {
	t.Helper()
	var a, b bytes.Buffer
	if err := campaign(&a); err != nil {
		t.Fatalf("%s run 1: %v", name, err)
	}
	if err := campaign(&b); err != nil {
		t.Fatalf("%s run 2: %v", name, err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s output differs between two identical runs", name)
	}
	return a.Bytes()
}

func TestFaultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the fault campaign runs many scenarios")
	}
	got := runTwice(t, "faults", func(w *bytes.Buffer) error {
		return faultCampaign(w, 50_000)
	})
	checkGolden(t, "faults.golden", got)
}

func TestAdmitGolden(t *testing.T) {
	got := runTwice(t, "admit", func(w *bytes.Buffer) error {
		return admitCampaign(w, defaultAdmitScript, 60_000, 2)
	})
	checkGolden(t, "admit.golden", got)
}

func TestChaosGolden(t *testing.T) {
	got := runTwice(t, "chaos short", func(w *bytes.Buffer) error {
		return chaosCampaign(w, true, 1789)
	})
	checkGolden(t, "chaos_short.golden", got)
	for _, want := range []string{
		"failover ", "evacuate ", "shed ", "readmit ",
		"all ladder steps within bound: true",
		"every live stream contiguous (zero lost or duplicated samples): true",
		"fleet conformance violations: 0",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("chaos short output missing %q", want)
		}
	}
}

// TestChaosSoakDeterministic runs the full soak twice; the short profile's
// golden already pins bytes, this pins the long horizon (three kills, a
// heal, a flash crowd) without checking in a large golden.
func TestChaosSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full soak twice")
	}
	got := runTwice(t, "chaos soak", func(w *bytes.Buffer) error {
		return chaosCampaign(w, false, 1789)
	})
	kills := bytes.Count(got, []byte("] verdict "))
	if kills < 3 {
		t.Errorf("full soak saw %d chain verdicts, want >= 3", kills)
	}
	for _, want := range []string{"] heal ", "] shed ", "] readmit ", "flash:"} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("full soak output missing %q", want)
		}
	}
	if n := fmt.Sprintf("fleet conformance violations: 0"); !bytes.Contains(got, []byte(n)) {
		t.Errorf("full soak reported conformance violations")
	}
}

func TestServeGolden(t *testing.T) {
	got := runTwice(t, "serve short", func(w *bytes.Buffer) error {
		return serveCampaign(w, true, 24601)
	})
	checkGolden(t, "serve_short.golden", got)
	if moves := bytes.Count(got, []byte("within-bound=true")); moves < 1 {
		t.Errorf("serve short completed %d rebalance moves, want >= 1", moves)
	}
	for _, want := range []string{
		"all rebalance moves within composed bound: true",
		"every live stream contiguous (zero lost or duplicated samples): true",
		"fleet conformance violations: 0",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("serve short output missing %q", want)
		}
	}
}

// TestServeSoakGolden pins the full campaign: over a thousand admitted
// background lifetimes, four diurnal cycles, a persistent flash crowd and
// dozens of live migrations — the transcript is aggregated, so the golden
// stays reviewable despite the ~2M-cycle horizon.
func TestServeSoakGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full serving campaign twice")
	}
	got := runTwice(t, "serve soak", func(w *bytes.Buffer) error {
		return serveCampaign(w, false, 24601)
	})
	checkGolden(t, "serve.golden", got)
	if moves := bytes.Count(got, []byte("within-bound=true")); moves < 10 {
		t.Errorf("full campaign completed %d rebalance moves, want >= 10", moves)
	}
	// The flash crowd must itself have been spread by the rebalancer: at
	// least one f-stream appears in the move table.
	if !bytes.Contains(got, []byte("f0")) {
		t.Errorf("no flash-crowd stream was ever migrated")
	}
	for _, want := range []string{
		"all rebalance moves within composed bound: true",
		"every live stream contiguous (zero lost or duplicated samples): true",
		"fleet conformance violations: 0",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("full campaign output missing %q", want)
		}
	}
}
