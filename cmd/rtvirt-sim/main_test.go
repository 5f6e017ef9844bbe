package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtvirt/internal/scenario"
)

// TestValidate checks that the SVG window and worker count are rejected
// with an error naming the flag when out of range, and that the defaults
// and in-range values are accepted.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*options)
		wantErr string // "" means valid
	}{
		{"defaults", func(*options) {}, ""},
		{"short window", func(o *options) { o.svgMS = 1 }, ""},
		{"sequential", func(o *options) { o.parallel = 1 }, ""},
		{"svg-ms 0", func(o *options) { o.svgMS = 0 }, "-svg-ms"},
		{"svg-ms -5", func(o *options) { o.svgMS = -5 }, "-svg-ms"},
		{"svg-ms overflow", func(o *options) { o.svgMS = 1 << 44 }, "-svg-ms"}, // 1.8e13 ms > 2^63 ns
		{"parallel -4", func(o *options) { o.parallel = -4 }, "-parallel"},
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

// TestTraceOnlyAfterInput checks that -trace creates its JSONL file only
// once the scenario has parsed: a missing scenario fails the run and leaves
// no file behind, and a good scenario streams its events into one.
func TestTraceOnlyAfterInput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.jsonl")
	if _, err := runScenario(filepath.Join(dir, "missing.json"), out, scenario.Options{}); err == nil {
		t.Fatal("missing scenario accepted")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed run left %s behind (stat: %v)", out, err)
	}

	res, err := runScenario("../../examples/scenarios/mixed.json", out, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(b, []byte("\n")); uint64(lines) != res.Events.Total() {
		t.Fatalf("trace holds %d lines, the run counted %d events", lines, res.Events.Total())
	}
}
