package quick

import (
	"fmt"
	"strings"
)

// Render formats the report the way rtvirt-bench prints it: a one-line
// tally, then every failure with its minimized reproducer inline. The
// output is deterministic for a fixed Config (goldens pin it).
func (r *Report) Render() string {
	var b strings.Builder
	pdesRuns := 0
	if r.PDES > 1 {
		pdesRuns = r.Cases
	}
	stacks := r.Runs
	if r.Cases > 0 {
		stacks = (r.Runs - pdesRuns) / r.Cases
	}
	fmt.Fprintf(&b, "quickcheck: %d cases x %d stacks", r.Cases, stacks)
	if r.PDES > 1 {
		fmt.Fprintf(&b, " + pdes identity x %d group counts", r.PDES)
	}
	fmt.Fprintf(&b, " (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "runs %d, skipped %d (admission-rejected builds), failures %d\n",
		r.Runs, r.Skipped, len(r.Failures))
	if len(r.Failures) == 0 {
		b.WriteString("PASS: every invariant held in every run")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d violating run(s)\n", len(r.Failures))
	for i, f := range r.Failures {
		fmt.Fprintf(&b, "[%d] case %d under %s: %d violation(s), shrunk in %d step(s) over %d run(s)\n",
			i, f.Case, f.Stack, len(f.Violations), f.ShrinkSteps, f.ShrinkRuns)
		for _, v := range f.Violations {
			fmt.Fprintf(&b, "    %v\n", v)
		}
	}
	b.WriteString("replay a repro with: rtvirt-sim <repro>.json")
	return b.String()
}
