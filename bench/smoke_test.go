package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestBenchSmoke runs every workload end to end and traced, with short
// phases, and checks that each metric BENCHMARK.json names is printed
// with its unit, that nothing failed, and that no gca-serve process
// outlives the run — also when the run is cancelled midway, as SIGINT
// does. It takes about two minutes, so it runs only with
// GCACC_BENCH_SMOKE=1.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("GCACC_BENCH_SMOKE") == "" {
		t.Skip("set GCACC_BENCH_SMOKE=1 to run the benchmark end to end")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Four seconds: a 1 s warm-up and, traced, a 1 s capacity phase. The
	// fixed-rate phase stretches to the 100 reads a p90 needs.
	o := options{seed: 1, seconds: 4, root: root, out: t.TempDir()}
	bin, err := buildServer(context.Background(), o.root, o.out)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		o.trace = trace
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, w := range workloads {
			r, err := runWorkload(context.Background(), w, bin, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if r.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed, the first: %v", w.name, trace, r.failed, r.attempted, r.firstErr)
			}
			out := report(w.name, o, r)
			for _, m := range want {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.MatchString(out) {
					t.Errorf("%s trace=%v: no %q line with unit %q in\n%s", w.name, trace, m.Name, m.Unit, out)
				}
			}
			if !trace && !strings.Contains(out, "error_rate") {
				t.Errorf("%s: no error_rate line", w.name)
			}
			assertNoServers(t, bin)
		}
	}

	// Cancelling the context is what SIGINT does in main.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	o.trace = false
	if _, err := runWorkload(ctx, workloads[2], bin, o); err == nil {
		t.Error("a cancelled run reported no error")
	}
	assertNoServers(t, bin)
}

// assertNoServers fails if any process still runs the given binary.
func assertNoServers(t *testing.T, bin string) {
	t.Helper()
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		cmd, err := os.ReadFile(p)
		if err == nil && bytes.HasPrefix(cmd, []byte(bin+"\x00")) {
			t.Errorf("gca-serve still running: %s", strings.ReplaceAll(string(cmd), "\x00", " "))
		}
	}
}
