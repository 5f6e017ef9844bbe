package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/replay-mixed.txt")

// TestReplayGolden streams examples/scenarios/mixed.json to a JSONL
// trace, as rtvirt-sim -trace does, replays it, and compares the whole
// report with testdata/replay-mixed.txt. The preempt row is the one a
// streaming estimator gets wrong: one of its 845 Args is a background
// job's ~2⁶⁰ ns remaining demand, and the nearest-rank p99 must ignore it.
func TestReplayGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	writeTrace(t, "../../examples/scenarios/mixed.json", path)

	var got bytes.Buffer
	if err := replayTrace(&got, path); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "replay-mixed.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("replay report differs from %s (run with -update to refresh):\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}

	// The sink's p99 is the nearest-rank value of the replayed Args.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := &trace.Recorder{}
	stats := &trace.StatsSink{}
	if _, err := trace.ReadJSONL(f, rec, stats); err != nil {
		t.Fatal(err)
	}
	var args []int64
	for _, ev := range rec.Records() {
		if ev.Kind == trace.Preempt {
			args = append(args, ev.Arg)
		}
	}
	slices.Sort(args)
	want99 := simtime.Duration(args[(99*len(args)+99)/100-1])
	if p99, ok := stats.ArgQuantile(trace.Preempt); !ok || p99 != want99 {
		t.Fatalf("preempt p99 = %v, want the nearest-rank %v over %d Args", p99, want99, len(args))
	}
	if want99 != simtime.Duration(17_006_200) {
		t.Fatalf("preempt nearest-rank p99 = %dns, want 17006200ns", int64(want99))
	}
}

// writeTrace runs the scenario at scenarioPath with a JSONL sink on its
// trace bus, writing every telemetry event to path.
func writeTrace(t *testing.T, scenarioPath, path string) {
	t.Helper()
	in, err := os.Open(scenarioPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(in)
	in.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	jsonl := trace.NewJSONL(out)
	if _, err := scenario.Run(sc, scenario.Options{Sinks: []trace.Sink{jsonl}}); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
}
