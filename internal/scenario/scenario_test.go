package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/trace"
)

const mixedJSON = `{
  "stack": "rtvirt",
  "pcpus": 2,
  "seconds": 5,
  "seed": 3,
  "vms": [
    {"name": "rt", "vcpus": 1, "tasks": [
      {"name": "ctl", "kind": "periodic", "slice_us": 2000, "period_us": 10000},
      {"name": "srv", "kind": "sporadic", "slice_us": 500, "period_us": 5000, "rate_hz": 50}
    ]},
    {"name": "batch", "vcpus": 1, "tasks": [{"name": "hog", "kind": "background"}]}
  ]
}`

func TestParseAndRun(t *testing.T) {
	sc, err := Parse(strings.NewReader(mixedJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stack != core.RTVirt || res.PCPUs != 2 || res.Seconds != 5 {
		t.Fatalf("run meta wrong: %+v", res)
	}
	byName := map[string]TaskResult{}
	for _, tr := range res.Tasks {
		byName[tr.Name] = tr
	}
	ctl := byName["ctl"]
	if ctl.Stats.Released != 501 || ctl.Stats.Missed != 0 {
		t.Fatalf("ctl stats: %+v", ctl.Stats)
	}
	srv := byName["srv"]
	if srv.Latency == nil || srv.Latency.Count() < 200 {
		t.Fatalf("srv latency samples: %v", srv.Latency)
	}
	hog := byName["hog"]
	// The batch VM has one VCPU: it can soak at most one of the two CPUs.
	if hog.Stats.TotalWork < 45*1e8 {
		t.Fatalf("hog consumed %v; an idle CPU should feed it", hog.Stats.TotalWork)
	}
	if res.AllocatedBW <= 0 {
		t.Fatal("no bandwidth reserved")
	}
}

func TestRunWithTrace(t *testing.T) {
	sc, err := Parse(strings.NewReader(mixedJSON))
	if err != nil {
		t.Fatal(err)
	}
	sc.Seconds = 1
	rec := &trace.Recorder{}
	res, err := Run(sc, Options{Sinks: []trace.Sink{rec}})
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty Sinks also attaches the per-kind counter.
	if n := len(rec.Records()); n == 0 || res.Events.Total() != uint64(n) {
		t.Fatalf("recorded %d events, counted %d", n, res.Events.Total())
	}
	var done int
	for _, r := range rec.Records() {
		if r.Kind == trace.JobDone {
			done++
		}
	}
	if done < 100 {
		t.Fatalf("trace recorded %d completions", done)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"stacc": "rtvirt"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"no VMs", `{"stack": "rtvirt"}`},
		{"negative pcpus", `{"pcpus": -3, "vms": [{"name": "a"}]}`},
		{"negative seconds", `{"seconds": -5, "vms": [{"name": "a"}]}`},
		{"bad stack", `{"stack": "vmware", "vms": [{"name": "a"}]}`},
		{"anonymous VM", `{"vms": [{"vcpus": 1}]}`},
		{"bad kind", `{"vms": [{"name": "a", "tasks": [{"name": "t", "kind": "spooky"}]}]}`},
		{"bad params", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 10, "period_us": 5}]}]}`},
		{"zero slice", `{"vms": [{"name": "a", "tasks": [{"name": "t", "period_us": 5}]}]}`},
		{"bad guest sched", `{"vms": [{"name": "a", "guest_sched": "cfs"}]}`},
		{"negative slack", `{"vms": [{"name": "a", "slack_us": -1}]}`},
		{"hotplug below vcpus", `{"vms": [{"name": "a", "vcpus": 4, "max_vcpus": 2}]}`},
		{"negative priority", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 1, "period_us": 5, "priority": -2}]}]}`},
		{"negative rate_hz", `{"vms": [{"name": "a", "tasks": [{"name": "t", "kind": "sporadic", "slice_us": 1, "period_us": 5, "rate_hz": -5}]}]}`},
		{"rate_hz past the 100µs gap floor", `{"vms": [{"name": "a", "tasks": [{"name": "t", "kind": "sporadic", "slice_us": 1, "period_us": 5, "rate_hz": 10001}]}]}`},
		{"overflowing rate_hz", `{"vms": [{"name": "a", "tasks": [{"name": "t", "kind": "sporadic", "slice_us": 1, "period_us": 5, "rate_hz": 1e30}]}]}`},
		{"period 10^12", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 1, "period_us": 1000000000000}]}]}`},
		{"period MaxInt64", `{"vms": [{"name": "a", "tasks": [{"name": "t", "slice_us": 1, "period_us": 9223372036854775807}]}]}`},
		{"server period 10^12", `{"vms": [{"name": "a", "servers": [{"budget_us": 1, "period_us": 1000000000000}]}]}`},
		{"negative server budget", `{"stack": "rt-xen", "vms": [{"name": "a", "servers": [{"budget_us": -5, "period_us": 1000}]}]}`},
		{"negative credit cap", `{"stack": "credit", "vms": [{"name": "a", "servers": [{"budget_us": -5, "period_us": 1000}]}]}`},
		{"zero server budget, rtvirt", `{"stack": "rtvirt", "vms": [{"name": "a", "servers": [{"budget_us": 0, "period_us": 1000}]}]}`},
		{"zero server budget, rt-xen", `{"stack": "rt-xen", "vms": [{"name": "a", "servers": [{"budget_us": 0, "period_us": 1000}]}]}`},
		{"zero server budget, two-level-edf", `{"stack": "two-level-edf", "vms": [{"name": "a", "servers": [{"period_us": 1000}]}]}`},
		{"negative cost", `{"costs": {"context_switch": -1}, "vms": [{"name": "a"}]}`},
		{"unknown cost field", `{"costs": {"warp_us": 1}, "vms": [{"name": "a"}]}`},
	}
	for _, c := range cases {
		sc, err := Parse(strings.NewReader(c.json))
		if err != nil {
			continue // parse-level rejection also counts
		}
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	// A period past the maximum is rejected by name; the maximum itself
	// stays valid.
	for _, us := range []int64{1e12, math.MaxInt64} {
		sc := Scenario{VMs: []VM{{Name: "a", Tasks: []TaskSpec{{Name: "huge", SliceUS: 1, PeriodUS: us}}}}}
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), `"huge"`) {
			t.Errorf("period_us %d: error %v, want one naming the task", us, err)
		}
	}
	sc := Scenario{VMs: []VM{{Name: "a", Servers: []ServerSpec{{BudgetUS: 1, PeriodUS: maxPeriodUS}},
		Tasks: []TaskSpec{{Name: "t", SliceUS: 1, PeriodUS: maxPeriodUS}}}}}
	if err := sc.Validate(); err != nil {
		t.Errorf("period_us at the maximum rejected: %v", err)
	}
	// Each size field is rejected just above its maximum, by field and
	// limit, and accepted at it.
	sizes := []struct {
		field string
		limit int
		set   func(*Scenario, int)
	}{
		{"pcpus", trace.MaxPCPUs, func(sc *Scenario, v int) { sc.PCPUs = v }},
		{"vcpus", maxVCPUs, func(sc *Scenario, v int) { sc.VMs[0].VCPUs = v }},
		{"max_vcpus", maxVCPUs, func(sc *Scenario, v int) { sc.VMs[0].MaxVCPUs = v }},
		{"servers", maxVCPUs, func(sc *Scenario, v int) {
			sc.VMs[0].Servers = make([]ServerSpec, v)
			for i := range sc.VMs[0].Servers {
				sc.VMs[0].Servers[i] = ServerSpec{BudgetUS: 1, PeriodUS: 10}
			}
		}},
	}
	for _, f := range sizes {
		for _, v := range []int{f.limit, f.limit + 1} {
			sc := Scenario{VMs: []VM{{Name: "a", Tasks: []TaskSpec{{Name: "t", SliceUS: 1, PeriodUS: 10}}}}}
			f.set(&sc, v)
			err := sc.Validate()
			if v == f.limit {
				if err != nil {
					t.Errorf("%s %d at the maximum rejected: %v", f.field, v, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), f.field) ||
				!strings.Contains(err.Error(), fmt.Sprintf("the %d maximum", f.limit)) {
				t.Errorf("%s %d: error %v, want one naming the field and the %d maximum", f.field, v, err, f.limit)
			}
		}
	}
	// A bad server budget is rejected by VM name and server index; under
	// Credit a zero budget stays valid, as an uncapped share.
	servers := func(stack string, budget int64) Scenario {
		return Scenario{Stack: stack, VMs: []VM{{Name: "vm1",
			Servers: []ServerSpec{{BudgetUS: 500, PeriodUS: 1000}, {BudgetUS: budget, PeriodUS: 1000}}}}}
	}
	for _, stack := range []string{"rtvirt", "rt-xen", "two-level-edf", "credit"} {
		for _, budget := range []int64{-5, 0} {
			err := servers(stack, budget).Validate()
			if stack == "credit" && budget == 0 {
				if err != nil {
					t.Errorf("credit with budget_us 0 rejected: %v", err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), `VM "vm1" server 1`) {
				t.Errorf("%s budget_us %d: error %v, want one naming VM \"vm1\" server 1", stack, budget, err)
			}
		}
	}
	// The rate range's ends stay valid: 0 selects the 10 Hz default.
	for _, hz := range []float64{0, 10000} {
		sc := Scenario{VMs: []VM{{Name: "a", Tasks: []TaskSpec{
			{Name: "t", Kind: "sporadic", SliceUS: 1, PeriodUS: 5, RateHz: hz}}}}}
		if err := sc.Validate(); err != nil {
			t.Errorf("rate_hz %v rejected: %v", hz, err)
		}
	}
}

// TestRetiredCostFields checks that each removed scalar *_us cost field
// fails to parse with an error naming its replacement, not the generic
// unknown-field error; network_delay_us was never retired and still loads.
func TestRetiredCostFields(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"context switch", `{"costs": {"context_switch_us": 2}, "vms": [{"name": "a"}]}`, "costs.context_switch"},
		{"migration", `{"costs": {"migration_us": 3}, "vms": [{"name": "a"}]}`, "costs.migration"},
		{"hypercall", `{"costs": {"hypercall_us": 10}, "vms": [{"name": "a"}]}`, "costs.hypercall"},
		{"mixed case", `{"costs": {"Hypercall_US": 10}, "vms": [{"name": "a"}]}`, "costs.hypercall"},
		{"beside its replacement", `{"costs": {"migration": 3, "migration_us": 3}, "vms": [{"name": "a"}]}`, "costs.migration"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.json))
		if err == nil {
			t.Errorf("%s: retired field accepted", c.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "use "+c.want+" ") || strings.Contains(msg, "unknown field") {
			t.Errorf("%s: error %q does not point at %s", c.name, msg, c.want)
		}
	}
	sc, err := Parse(strings.NewReader(`{"costs": {"network_delay_us": 25}, "vms": [{"name": "a"}]}`))
	if err != nil {
		t.Fatalf("network_delay_us rejected: %v", err)
	}
	if err := sc.Validate(); err != nil || *sc.Costs.NetworkDelayUS != 25 {
		t.Fatalf("network_delay_us: %v, %+v", err, sc.Costs)
	}
}

func TestStackFor(t *testing.T) {
	for name, want := range map[string]core.Stack{
		"": core.RTVirt, "rtvirt": core.RTVirt, "rt-xen": core.RTXen,
		"rtxen": core.RTXen, "edf": core.TwoLevelEDF, "credit": core.Credit,
	} {
		got, err := StackFor(name)
		if err != nil || got != want {
			t.Errorf("StackFor(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := StackFor("esxi"); err == nil {
		t.Error("unknown stack accepted")
	}
}

func TestServerGuestsAndCreditWeights(t *testing.T) {
	js := `{
	  "stack": "credit",
	  "pcpus": 1,
	  "seconds": 2,
	  "vms": [
	    {"name": "capped", "servers": [{"budget_us": 3000, "period_us": 10000}],
	     "tasks": [{"name": "hog1", "kind": "background"}]},
	    {"name": "free", "weight": 256,
	     "tasks": [{"name": "hog2", "kind": "background"}]}
	  ]
	}`
	sc, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var capped, free TaskResult
	for _, tr := range res.Tasks {
		if tr.VM == "capped" {
			capped = tr
		} else {
			free = tr
		}
	}
	// The capped VM is limited to ~30%; the free one takes the rest.
	if capped.Stats.TotalWork > free.Stats.TotalWork {
		t.Fatalf("cap not enforced: capped %v vs free %v",
			capped.Stats.TotalWork, free.Stats.TotalWork)
	}
}

func TestGuestSchedAndSlackKnobs(t *testing.T) {
	const doc = `{
	  "stack": "rtvirt", "pcpus": 2, "seconds": 2, "seed": 3,
	  "vms": [
	    {
	      "name": "gedf-vm", "vcpus": 2, "guest_sched": "gedf",
	      "tasks": [
	        {"name": "a", "kind": "periodic", "slice_us": 3000, "period_us": 10000},
	        {"name": "b", "kind": "periodic", "slice_us": 3000, "period_us": 10000},
	        {"name": "c", "kind": "periodic", "slice_us": 3000, "period_us": 10000}
	      ]
	    },
	    {
	      "name": "lean-vm", "slack_us": 0,
	      "tasks": [{"name": "d", "kind": "periodic", "slice_us": 1000, "period_us": 10000}]
	    }
	  ]
	}`
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Stats.Missed != 0 {
			t.Errorf("task %s/%s missed %d deadlines", tr.VM, tr.Name, tr.Stats.Missed)
		}
	}
	// 0.9 CPUs of gedf-vm tasks + 0.1 of lean-vm + gedf-vm's slack terms;
	// lean-vm itself adds none.
	if res.AllocatedBW > 1.11 {
		t.Fatalf("allocated %.3f CPUs", res.AllocatedBW)
	}

	// In isolation, slack_us=0 must reserve exactly the fluid bandwidth:
	// ⌈0.1·10ms⌉ over 10ms = 0.1 CPUs, no slack term.
	lean := Scenario{
		Stack: "rtvirt", PCPUs: 1, Seconds: 1,
		VMs: []VM{{
			Name: "lean", SlackUS: new(int64),
			Tasks: []TaskSpec{{Name: "d", Kind: "periodic", SliceUS: 1000, PeriodUS: 10000}},
		}},
	}
	lres, err := Run(lean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.AllocatedBW < 0.0999 || lres.AllocatedBW > 0.1001 {
		t.Fatalf("slack_us=0 reserved %.4f CPUs, want exactly 0.1", lres.AllocatedBW)
	}
}

func TestPrioritySlackKnob(t *testing.T) {
	run := func(prio int, prioritySlack bool) float64 {
		sc := Scenario{
			Stack: "rtvirt", PCPUs: 2, Seconds: 1,
			VMs: []VM{{
				Name: "v", PrioritySlack: prioritySlack,
				Tasks: []TaskSpec{{
					Name: "t", Kind: "periodic",
					SliceUS: 2000, PeriodUS: 10000, Priority: prio,
				}},
			}},
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.AllocatedBW
	}
	base := run(0, true)
	boosted := run(3, true)
	ignored := run(3, false)
	// Priority 3 with priority_slack buys (1+3)× the 500µs slack:
	// budget 2ms+2ms over 10ms vs 2ms+0.5ms.
	if boosted <= base {
		t.Fatalf("priority_slack had no effect: base %.3f boosted %.3f", base, boosted)
	}
	if ignored != base {
		t.Fatalf("priority affected allocation without priority_slack: %.3f vs %.3f", ignored, base)
	}
}

func TestHotplugKnob(t *testing.T) {
	// One VCPU cannot hold 1.4 CPUs of tasks; max_vcpus lets the guest
	// grow. Without it, registration must fail.
	doc := func(maxVCPUs int) Scenario {
		return Scenario{
			Stack: "rtvirt", PCPUs: 2, Seconds: 1, VMs: []VM{{
				Name: "v", VCPUs: 1, MaxVCPUs: maxVCPUs,
				Tasks: []TaskSpec{
					{Name: "a", Kind: "periodic", SliceUS: 7000, PeriodUS: 10000},
					{Name: "b", Kind: "periodic", SliceUS: 7000, PeriodUS: 10000},
				},
			}},
		}
	}
	if _, err := Run(doc(0), Options{}); err == nil {
		t.Fatal("1.4 CPUs of tasks fit a single fixed VCPU")
	}
	res, err := Run(doc(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Stats.Missed != 0 {
			t.Errorf("task %s missed %d deadlines after hotplug", tr.Name, tr.Stats.Missed)
		}
	}
}

func TestCostsOverride(t *testing.T) {
	run := func(costs string) *Result {
		js := `{
  "pcpus": 1, "seconds": 2, "seed": 3,` + costs + `
  "vms": [{"name": "rt", "tasks": [
    {"name": "ctl", "kind": "periodic", "slice_us": 2000, "period_us": 10000}]}]
}`
		sc, err := Parse(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	def := run(``)
	costly := run(`
  "costs": {"context_switch": 200, "hypercall": 500},`)
	free := run(`
  "costs": {"context_switch": 0, "migration": 0, "hypercall": 0},`)

	if costly.Overhead.Percent <= def.Overhead.Percent {
		t.Fatalf("inflated costs did not raise overhead: %v <= %v",
			costly.Overhead.Percent, def.Overhead.Percent)
	}
	if free.Overhead.Percent >= def.Overhead.Percent {
		t.Fatalf("zeroed costs did not lower overhead: %v >= %v",
			free.Overhead.Percent, def.Overhead.Percent)
	}
	if costly.Overhead.CtxSwitchTime <= def.Overhead.CtxSwitchTime {
		t.Fatalf("context-switch override ignored: %v <= %v",
			costly.Overhead.CtxSwitchTime, def.Overhead.CtxSwitchTime)
	}
}

// A fractional rate_hz is not truncated before it sizes the closed-form
// client's request cap: 100 s at 0.5 Hz releases about 50 requests, not 16.
func TestFractionalRateRequestCap(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{
  "stack": "rtvirt",
  "pcpus": 1,
  "seconds": 100,
  "seed": 1,
  "vms": [
    {"name": "rt", "vcpus": 1, "tasks": [
      {"name": "srv", "kind": "sporadic", "slice_us": 500, "period_us": 5000, "rate_hz": 0.5}
    ]}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tasks[0].Stats.Released; got < 35 || got > 66 {
		t.Fatalf("0.5 Hz over 100 s released %d requests, want about 50 (cap 66)", got)
	}
}
