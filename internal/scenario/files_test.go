package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the shipped-scenario goldens under testdata/shipped/")

// TestShippedScenarioFiles parses, validates and briefly runs every JSON
// scenario shipped under examples/scenarios, so the samples in the README
// cannot rot, and pins each 2 s run to a golden under testdata/shipped:
// the dispatch digest, the per-kind event counts and every task's
// released and missed jobs. Refresh with -update only for an intended
// change of simulated behaviour.
func TestShippedScenarioFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenarios directory: %v", err)
	}
	found := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		found++
		t.Run(e.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seconds = 2 // shorten for the test
			dig := check.NewDispatchDigest()
			res, err := Run(sc, Options{Sinks: []trace.Sink{dig}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tasks) == 0 {
				t.Fatal("scenario ran no tasks")
			}
			for _, tr := range res.Tasks {
				if tr.Kind != "background" && tr.Stats.Released == 0 {
					t.Errorf("task %s released nothing", tr.Name)
				}
			}
			checkShippedGolden(t, strings.TrimSuffix(e.Name(), ".json")+".golden", shippedSummary(dig, res))
		})
	}
	if found < 2 {
		t.Fatalf("only %d shipped scenarios found", found)
	}
}

// shippedSummary renders what a shipped-scenario golden pins.
func shippedSummary(dig *check.DispatchDigest, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dispatch %016x %d\n", dig.Sum(), dig.Events())
	for k, n := range res.Events {
		if n != 0 {
			fmt.Fprintf(&b, "count %s %d\n", trace.Kind(k), n)
		}
	}
	for _, tr := range res.Tasks {
		fmt.Fprintf(&b, "task %s/%s %s released %d missed %d\n",
			tr.VM, tr.Name, tr.Kind, tr.Stats.Released, tr.Stats.Missed)
	}
	return b.String()
}

func checkShippedGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "shipped", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("run differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
