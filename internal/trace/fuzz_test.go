package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtvirt/internal/scenario"
	"rtvirt/internal/trace"
)

// replayBudget is the wall time one fuzz input may take. Go's fuzzer has
// no per-input timeout, so without it a slow input shows only as a stall.
// The mixed.json stream, the largest seed, replays in about 0.2 s.
const replayBudget = 10 * time.Second

// FuzzReplay feeds arbitrary bytes through the `rtvirt-analyze -replay`
// pipeline: ReadJSONL into a Summary and a StatsSink, then both reports.
// Every input must end in an error or in a report whose length is bounded
// by the input, and no duration in the report may be negative.
func FuzzReplay(f *testing.F) {
	in, err := os.Open(filepath.Join("..", "..", "examples", "scenarios", "mixed.json"))
	if err != nil {
		f.Fatal(err)
	}
	sc, err := scenario.Parse(in)
	in.Close()
	if err != nil {
		f.Fatal(err)
	}
	var mixed bytes.Buffer
	jsonl := trace.NewJSONL(&mixed)
	if _, err := scenario.Run(sc, scenario.Options{Sinks: []trace.Sink{jsonl}}); err != nil {
		f.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(mixed.Bytes())
	golden, err := os.ReadFile(filepath.Join("testdata", "events.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"at_ns":5,"kind":"dispatch","pcpu":4000000}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		sum := &trace.Summary{}
		stats := &trace.StatsSink{}
		if _, err := trace.ReadJSONL(bytes.NewReader(data), sum, stats); err != nil {
			return
		}
		var out bytes.Buffer
		if err := stats.Report(&out); err != nil {
			t.Fatal(err)
		}
		sum.Close(sum.To) // as rtvirt-analyze does: settle at the last event
		if err := sum.Write(&out); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > replayBudget {
			t.Fatalf("replay of %d bytes took %v, over the %v budget", len(data), d, replayBudget)
		}

		// One report row per kind, VCPU and PCPU: every VCPU needs an
		// event, and so an opening brace, and PCPUs stop at MaxPCPUs.
		rows := bytes.Count(out.Bytes(), []byte("\n"))
		if bound := 8 + trace.NumKinds + bytes.Count(data, []byte("{")) + trace.MaxPCPUs; rows > bound {
			t.Fatalf("%d-byte input printed %d rows, above the bound %d", len(data), rows, bound)
		}
		if w := sum.Window(); w < 0 {
			t.Fatalf("negative window %v", w)
		}
		for k, v := range sum.VCPUs {
			if v.Run < 0 {
				t.Fatalf("%v: negative run %v", k, v.Run)
			}
		}
		for _, p := range sum.PCPUs {
			if p.Busy < 0 {
				t.Fatalf("pcpu%d: negative busy %v", p.PCPU, p.Busy)
			}
		}
		for k := 0; k < trace.NumKinds; k++ {
			if q, ok := stats.ArgQuantile(trace.Kind(k)); ok && q < 0 {
				t.Fatalf("%v: negative p99(arg) %v", trace.Kind(k), q)
			}
		}
	})
}
