package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all-seconds1.txt")

// TestValidate checks that every flag value an experiment would clamp or
// replace silently is rejected with an error naming the flag, and that the
// defaults and each experiment name are accepted.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*options)
		wantErr string // "" means valid
		wantRun int    // experiments selected when valid
	}{
		{"defaults", func(*options) {}, "", len(experimentTable)},
		{"one experiment", func(o *options) { o.experiment = "fig3" }, "", 1},
		{"case-insensitive name", func(o *options) { o.experiment = "Table6" }, "", 1},
		{"all in upper case", func(o *options) { o.experiment = "ALL" }, "", len(experimentTable)},
		{"sequential", func(o *options) { o.parallel = 1 }, "", len(experimentTable)},
		{"explicit seconds", func(o *options) { o.seconds = 5 }, "", len(experimentTable)},
		{"runs 0", func(o *options) { o.runs = 0 }, "-runs", 0},
		{"runs -2", func(o *options) { o.runs = -2 }, "-runs", 0},
		{"n 0", func(o *options) { o.n = 0 }, "-n", 0},
		{"n -1", func(o *options) { o.n = -1 }, "-n", 0},
		{"seconds -5", func(o *options) { o.seconds = -5 }, "-seconds", 0},
		{"seconds overflow", func(o *options) { o.seconds = 1 << 40 }, "-seconds", 0},
		{"parallel -3", func(o *options) { o.parallel = -3 }, "-parallel", 0},
		{"unknown experiment", func(o *options) { o.experiment = "fig9" }, "-experiment", 0},
		{"removed mode", func(o *options) { o.experiment = "pdes" }, "-experiment", 0},
		{"removed surge", func(o *options) { o.experiment = "surge" }, "-experiment", 0},
		{"removed bisect", func(o *options) { o.experiment = "bisect" }, "-experiment", 0},
		{"removed io", func(o *options) { o.experiment = "io" }, "-experiment", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOptions()
			tc.mutate(&o)
			got, err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(got) != tc.wantRun {
					t.Fatalf("selected %d experiments, want %d", len(got), tc.wantRun)
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

// TestExperimentTable checks that the table has no duplicate names and
// none that would shadow "all".
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentTable {
		if e.name == "all" || e.name != strings.ToLower(e.name) || seen[e.name] {
			t.Errorf("bad experiment name %q", e.name)
		}
		seen[e.name] = true
	}
}

// TestGoldenAll compares the report of -experiment all -seconds 1 with
// testdata/all-seconds1.txt, the output of
// `rtvirt-bench -experiment all -seconds 1 -parallel 1`, so every
// experiment's wiring from flags to driver to renderer is pinned.
func TestGoldenAll(t *testing.T) {
	o := defaultOptions()
	o.seconds = 1
	selected, err := o.validate()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	runSelected(&got, selected, o)
	golden := filepath.Join("testdata", "all-seconds1.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d (run with -update to refresh):\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
