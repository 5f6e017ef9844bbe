package main

import (
	"strings"
	"testing"
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
