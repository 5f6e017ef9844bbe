package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidate checks that every flag value the analysis would replace
// with a default or misuse silently is rejected with an error naming the
// flag, and that the defaults and in-range values are accepted.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*options)
		wantErr string // "" means valid
	}{
		{"defaults", func(*options) {}, ""},
		{"quantum 100", func(o *options) { o.quantumUS = 100 }, ""},
		{"fixed period", func(o *options) { o.periodUS = 5000 }, ""},
		{"small slack", func(o *options) { o.slackUS = 1 }, ""},
		{"pcpus override", func(o *options) { o.pcpus = 8 }, ""},
		{"quantum 0", func(o *options) { o.quantumUS = 0 }, "-quantum-us"},
		{"quantum -5", func(o *options) { o.quantumUS = -5 }, "-quantum-us"},
		{"quantum overflow", func(o *options) { o.quantumUS = maxUS + 1 }, "-quantum-us"},
		{"period -100", func(o *options) { o.periodUS = -100 }, "-period-us"},
		{"period overflow", func(o *options) { o.periodUS = 1 << 62 }, "-period-us"},
		{"slack 0", func(o *options) { o.slackUS = 0 }, "-slack-us"},
		{"slack -1", func(o *options) { o.slackUS = -1 }, "-slack-us"},
		{"slack -1000", func(o *options) { o.slackUS = -1000 }, "-slack-us"},
		{"slack overflow", func(o *options) { o.slackUS = maxUS + 1 }, "-slack-us"},
		{"pcpus -3", func(o *options) { o.pcpus = -3 }, "-pcpus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOptions()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted; want an error naming %s", tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestExitStatus checks that the status tells an error from a verdict: 2
// for an input that cannot be read, 1 for a workload the scenario's own
// stack rejects, 0 for one it admits.
func TestExitStatus(t *testing.T) {
	negPCPUs := filepath.Join(t.TempDir(), "neg-pcpus.json")
	if err := os.WriteFile(negPCPUs, []byte(`{"pcpus": -1, "vms": [{"name": "a"}]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{filepath.Join(t.TempDir(), "missing.json"), 2},
		{negPCPUs, 2},
		{"../../examples/scenarios/baseline-edf.json", 1},
		{"../../examples/scenarios/mixed.json", 0},
	} {
		if got := cli([]string{tc.path}, io.Discard, io.Discard); got != tc.want {
			t.Errorf("rtvirt-analyze %s exited %d, want %d", tc.path, got, tc.want)
		}
	}
}

// TestReplayTimeBackwards checks that a trace whose time goes backwards is
// an input error: exit 2 with the offending event named, and no summary
// over a negative span printed.
func TestReplayTimeBackwards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backwards.jsonl")
	in := `{"at_ns":5,"kind":"dispatch","pcpu":0,"vm":"a","vcpu":0,"arg":1000}
{"at_ns":1,"kind":"dispatch","pcpu":0,"arg":0}
`
	if err := os.WriteFile(path, []byte(in), 0o666); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if got := cli([]string{"-replay", path}, &stdout, &stderr); got != 2 {
		t.Fatalf("rtvirt-analyze -replay exited %d, want 2", got)
	}
	if want := "event 2 at 1ns precedes event 1 at 5ns"; !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q, want it to contain %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed %q for a rejected trace", stdout.String())
	}
}

// TestOutputOnlyAfterInput checks that -o creates its file only once every
// input has been read: a missing scenario or trace fails the run and leaves
// no report behind, and a good scenario still writes one.
func TestOutputOnlyAfterInput(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	for _, replay := range []bool{false, true} {
		out := filepath.Join(dir, fmt.Sprintf("report-%v.txt", replay))
		if _, err := run(io.Discard, defaultOptions(), out, false, replay, []string{missing}); err == nil {
			t.Fatalf("replay=%v: missing input accepted", replay)
		}
		if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("replay=%v: failed run left %s behind (stat: %v)", replay, out, err)
		}
	}

	out := filepath.Join(dir, "report.txt")
	if _, err := run(io.Discard, defaultOptions(), out, false, false, []string{"../../examples/scenarios/mixed.json"}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(out); err != nil || !strings.Contains(string(b), "host:") {
		t.Fatalf("report %q (err %v), want the host summary", b, err)
	}
}
