package main

import (
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
