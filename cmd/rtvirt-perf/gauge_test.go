package main

import "testing"

// TestGaugeMeasures runs the gauge, which panics if the embedded source no
// longer parses.
func TestGaugeMeasures(t *testing.T) {
	if s := gaugeTime(); s <= 0 {
		t.Errorf("gauge measured %v s", s)
	}
}
