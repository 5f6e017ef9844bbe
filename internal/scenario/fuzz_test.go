package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"rtvirt/internal/hv"
)

// FuzzScenarioJSON holds the scenario codec to two properties under
// arbitrary input: Parse never panics, and any scenario that parses AND
// validates survives a marshal/re-parse round trip unchanged (so repro
// files written by the quickcheck shrinker replay exactly). Run it with
//
//	go test ./internal/scenario -fuzz FuzzScenarioJSON
//
// Seed corpus: f.Add calls below plus testdata/fuzz/FuzzScenarioJSON.
func FuzzScenarioJSON(f *testing.F) {
	f.Add([]byte(`{"stack":"rtvirt","pcpus":2,"seconds":1,"vms":[
		{"name":"a","vcpus":1,"tasks":[{"name":"t","slice_us":500,"period_us":5000}]}]}`))
	f.Add([]byte(`{"stack":"rt-xen","vms":[{"name":"b",
		"servers":[{"budget_us":4000,"period_us":10000}],
		"tasks":[{"name":"s","kind":"sporadic","slice_us":100,"period_us":7000,"rate_hz":20}]}]}`))
	f.Add([]byte(`{"costs":{"hypercall_us":1.5},"vms":[{"name":"c","tasks":[{"name":"bg","kind":"background"}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"d","tasks":[{"name":"w","kind":"sporadic","slice_us":200,"period_us":5000,
		"arrivals":{"diurnal":{"base_hz":50,"peak_hz":150,"day_ms":2000,"phase":0.25}},
		"adaptive":{"target_us":2500,"window_ms":50,"max_slice_us":600}}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"e","tasks":[{"name":"m","kind":"sporadic","slice_us":100,"period_us":7000,
		"arrivals":{"mmpp":{"rates_hz":[40,160],"sojourn_ms":[100,100]}}}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"f","tasks":[{"name":"fc","kind":"sporadic","slice_us":100,"period_us":10000,
		"arrivals":{"flash":{"base_hz":80,"surges":[{"at_ms":500,"peak_hz":240,"ramp_ms":100,"decay_ms":200}]}}}]}]}`))
	f.Add([]byte(`{"stack":"credit","vms":[{"name":"g","weight":512,
		"tasks":[{"name":"ev","kind":"evader","evader":{"tick_us":10000,"guard_us":300}}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"h","tasks":[{"name":"ev","kind":"evader"}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"r","tasks":[{"name":"s","kind":"sporadic","slice_us":100,"period_us":7000,"rate_hz":-5}]}]}`))
	f.Add([]byte(`{"vms":[{"name":"p","tasks":[{"name":"t","slice_us":1,"period_us":1000000000000}]}]}`))
	f.Add([]byte(`{"stack":"rt-xen","vms":[{"name":"n","servers":[{"budget_us":-5,"period_us":1000}]}]}`))
	f.Add([]byte(`{"stack":"credit","vms":[{"name":"u","servers":[{"budget_us":0,"period_us":1000}]}]}`))
	f.Add([]byte(`{"vms":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sc.Validate() != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("valid scenario does not marshal: %v", err)
		}
		back, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-parse of marshaled scenario failed: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\nin:  %+v\nout: %+v", sc, back)
		}
	})
}

// FuzzCostsBlock stresses the costs override block in isolation:
// validation must reject every block that would corrupt the cost model
// (negative, NaN, Inf, malformed distribution objects), and any block that
// passes validation must apply to terms with non-negative means without
// panicking.
func FuzzCostsBlock(f *testing.F) {
	f.Add(`{"context_switch_us":2,"migration_us":3,"hypercall_us":10}`)
	f.Add(`{"hypercall_us":0}`)
	f.Add(`{"migration_us":1e-3}`)
	f.Add(`{"context_switch_us":-1}`)
	f.Add(`{}`)
	f.Add(`{"migration":3,"tick":{"const":20}}`)
	f.Add(`{"hypercall":{"lognormal":{"mean_us":10,"sigma":0.45}}}`)
	f.Add(`{"ctx_switch_cold":{"pareto":{"lo_us":2,"hi_us":50,"alpha":2.2}}}`)
	f.Add(`{"schedule_base":{"uniform":{"lo_us":0.5,"hi_us":1.5}},"guest_switch":{"normal":{"mean_us":1,"stddev_us":0.3,"min_us":0.1}}}`)
	f.Add(`{"migration_per_mib":0.12}`)
	f.Add(`{"hypercall":{"const":1,"normal":{"mean_us":2}}}`)
	f.Add(`{"tick":{}}`)
	f.Add(`{"context_switch":1,"ctx_switch_warm":2}`)
	f.Add(`{"hypercall_us":10,"hypercall_inc_bw":{"const":5}}`)
	f.Add(`{"migration":{"pareto":{"lo_us":0,"hi_us":5,"alpha":1.5}}}`)
	f.Fuzz(func(t *testing.T, block string) {
		raw := []byte(`{"vms":[{"name":"a"}],"costs":` + block + `}`)
		sc, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if sc.Validate() != nil {
			return
		}
		cm := hv.DefaultCosts()
		if sc.Costs != nil {
			sc.Costs.apply(&cm)
		}
		for _, c := range []hv.Cost{
			cm.CtxSwitchWarm, cm.CtxSwitchCold, cm.Migration, cm.MigrationPerMiB,
			cm.HypercallIncBW, cm.HypercallDecBW, cm.HypercallIncDecBW,
			cm.ScheduleBase, cm.SchedulePerEntity, cm.GuestSwitch, cm.Tick,
		} {
			if c.Mean() < 0 {
				t.Fatalf("validated costs block %q applied to a negative-mean term %v: %+v", block, c, cm)
			}
		}
	})
}
