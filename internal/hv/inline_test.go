package hv

import (
	"bufio"
	"bytes"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestHotPathInlines pins the per-event fast path to the compiler's
// default inliner, in the manner of the Go toolchain's own
// TestIntendedInlining: it builds the hot packages with -gcflags=-m and
// asserts that every function named below is reported as inlinable. Each
// sits on an edge every simulated event crosses, and each fits the
// budget only because its cold path (a panic value that formats lazily, a
// trace event built out of line, the sampled cost draw) lives elsewhere;
// a change that pulls that code back in fails here instead of as a slower
// benchmark.
func TestHotPathInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	want := map[string][]string{
		"rtvirt/internal/eventq": {
			"less",
			"Handle.Active",
			"(*Queue).SchedulePayload",
			"(*Queue).recycle",
		},
		"rtvirt/internal/sim": {
			"(*Simulator).PostAt",
			"(*Simulator).Reschedule",
			"(*Simulator).RunUntil",
			"(*Simulator).dispatch",
		},
		"rtvirt/internal/trace": {
			"(*Bus).Active",
		},
		"rtvirt/internal/hv": {
			"(*Host).Tracing",
			"(*Host).emitDispatch",
			"(*Host).emitJobDone",
			"(*Host).emitGuestSwitch",
		},
		"rtvirt/internal/sched/credit": {
			"setBit",
			"clearBit",
			"(*Scheduler).rank",
		},
	}
	var pkgs []string
	for p := range want {
		pkgs = append(pkgs, p)
	}
	out, err := exec.Command(goTool, append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// The report is a "# import/path" header per package, then lines
	// reading "file.go:line:col: can inline NAME ...". File paths are not
	// used: the build cache replays them relative to the directory of the
	// build that filled it.
	canInline := regexp.MustCompile(`^\S+\.go:\d+:\d+: can inline (\S+)`)
	got := map[string]bool{}
	pkg := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "# "); ok {
			pkg = p
		} else if m := canInline.FindStringSubmatch(line); m != nil {
			got[pkg+"."+m[1]] = true
		}
	}
	for pkg, fns := range want {
		for _, fn := range fns {
			if !got[pkg+"."+fn] {
				t.Errorf("%s.%s is not inlinable", pkg, fn)
			}
		}
	}
}
