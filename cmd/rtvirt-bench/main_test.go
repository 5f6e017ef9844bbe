package main

import (
	"strings"
	"testing"
)

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
		{"defaults", func(*options) {}, "", len(experiments)},
		{"one experiment", func(o *options) { o.experiment = "fig3" }, "", 1},
		{"case-insensitive name", func(o *options) { o.experiment = "Table6" }, "", 1},
		{"all in upper case", func(o *options) { o.experiment = "ALL" }, "", len(experiments)},
		{"sequential", func(o *options) { o.parallel = 1 }, "", len(experiments)},
		{"explicit seconds", func(o *options) { o.seconds = 5 }, "", len(experiments)},
		{"runs 0", func(o *options) { o.runs = 0 }, "-runs", 0},
		{"runs -2", func(o *options) { o.runs = -2 }, "-runs", 0},
		{"n 0", func(o *options) { o.n = 0 }, "-n", 0},
		{"n -1", func(o *options) { o.n = -1 }, "-n", 0},
		{"seconds -5", func(o *options) { o.seconds = -5 }, "-seconds", 0},
		{"seconds overflow", func(o *options) { o.seconds = 1 << 40 }, "-seconds", 0},
		{"parallel -3", func(o *options) { o.parallel = -3 }, "-parallel", 0},
		{"unknown experiment", func(o *options) { o.experiment = "fig9" }, "-experiment", 0},
		{"removed mode", func(o *options) { o.experiment = "pdes" }, "-experiment", 0},
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
	for _, e := range experiments {
		if e.name == "all" || e.name != strings.ToLower(e.name) || seen[e.name] {
			t.Errorf("bad experiment name %q", e.name)
		}
		seen[e.name] = true
	}
}
