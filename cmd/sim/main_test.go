package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs sim with args and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("sim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestUnknownSubcommandListsAll(t *testing.T) {
	for _, args := range [][]string{nil, {"simdag"}} {
		err := run(args, io.Discard)
		if err == nil {
			t.Fatalf("sim %v: no error", args)
		}
		for _, name := range []string{"dag", "fault", "kernels", "perf", "race", "trace"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("sim %v: %q does not list %s", args, err, name)
			}
		}
	}
}

// TestDAGMatchesFig1: `sim dag` draws the DOT that
// bench.TestDAGExperimentMatchesFig1 pins for 4x4-tile QR.
func TestDAGMatchesFig1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qr4.dot")
	runOK(t, "dag", "-alg", "qr", "-nt", "4", "-dot", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != "921dad64224ea89bf17d22e20633e4abc37f1fced899e6bae20905abaee0a4f1" {
		t.Fatalf("DOT SHA-256 %s, want Fig. 1's pin", got)
	}
}

// TestFlagDefaults pins every subcommand's flag set and defaults to those
// of the standalone tool it replaced.
func TestFlagDefaults(t *testing.T) {
	want := map[string]map[string]string{
		"dag": {"alg": "qr", "nt": "4", "sched": "ompss", "list": "false", "dot": "", "capture": "", "in": "", "validate": "false"},
		"fault": {"alg": "cholesky", "nt": "10", "nb": "120", "workers": "8", "seed": "42", "timeout": "30s",
			"faultseed": "1", "scenario": "", "panic": "0", "transient": "0", "straggler": "0", "stall": "0", "deadcores": "0", "retries": "2"},
		"kernels": {"alg": "qr", "nt": "8", "nb": "120", "workers": "8", "sched": "quark", "seed": "42", "class": "", "bins": "20"},
		"perf":    {"sched": "", "alg": "", "nb": "200", "maxnt": "8", "workers": "8", "seed": "42"},
		"race":    {"sched": "quark", "timeout": "30s", "trials": "200"},
		"trace":   {"alg": "qr", "sched": "quark", "nt": "8", "nb": "180", "workers": "16", "seed": "42", "out": ""},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d subcommands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !maps.Equal(got, want[c.name]) {
			t.Errorf("sim %s flags %v, want %v", c.name, got, want[c.name])
		}
	}
}

func TestFaultAndRaceComplete(t *testing.T) {
	if out := runOK(t, "fault", "-alg", "lu", "-nt", "4", "-nb", "32", "-workers", "2"); !strings.Contains(out, "fault resilience: lu NT=4 NB=32 on 2 cores") {
		t.Errorf("sim fault printed %q", out)
	}
	if out := runOK(t, "race", "-trials", "5"); !strings.Contains(out, "quiescence") {
		t.Errorf("sim race printed %q", out)
	}
}

// TestTimedSubcommandsComplete runs the subcommands that time real
// kernels once at their smallest sizes.
func TestTimedSubcommandsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("times real kernels")
	}
	runOK(t, "kernels", "-nt", "4", "-nb", "16", "-workers", "2")
	dir := t.TempDir()
	runOK(t, "trace", "-nt", "2", "-nb", "16", "-workers", "2", "-out", dir)
	for _, f := range []string{"real.svg", "real.txt", "simulated.svg", "simulated.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
	runOK(t, "perf", "-sched", "quark", "-alg", "cholesky", "-nb", "16", "-maxnt", "3", "-workers", "2")
}
