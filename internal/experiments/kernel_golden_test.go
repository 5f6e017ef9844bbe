package experiments

import (
	"fmt"
	"testing"

	"rtvirt/internal/simtime"
)

// TestGoldenKernelRewrite pins every Figure 3 row and every Table 6 row at
// seed 1 / 10s to the exact values the simulator produced before the event
// queue was rewritten as an intrusive 4-ary heap (and before the rtxen and
// dpwrap scan removals). The rewrite is a pure data-structure change:
// event ordering, overhead charging (Decision.Work), and RNG consumption
// must all be untouched, so these numbers must match digit for digit. A
// diff here means the kernel changed simulation semantics, not just speed.
// The subtest is named after the event queue the sweep runs on.
func TestGoldenKernelRewrite(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment sweeps")
	}
	t.Run("heap", goldenKernelSweep)
}

func goldenKernelSweep(t *testing.T) {

	type fig3Golden struct {
		req, xenAlloc, xenClaim, rtvAlloc          string
		xenMissed, xenJudged, rtvMissed, rtvJudged int
	}
	wantFig3 := map[string]fig3Golden{
		"H-Equiv":  {"2.077500000", "2.283333333", "3.000000000", "2.126250000", 0, 1462, 0, 1462},
		"H-Dec":    {"1.930000000", "2.192857143", "3.000000000", "2.022500000", 0, 2775, 0, 2775},
		"H-Inc":    {"2.025000000", "2.327777778", "3.000000000", "2.117500000", 0, 2775, 0, 2775},
		"NH-Equiv": {"2.080000000", "2.226190476", "3.000000000", "2.130833333", 0, 1525, 0, 1525},
		"NH-Dec":   {"2.016666667", "2.327777778", "3.000000000", "2.113333333", 0, 2900, 0, 2900},
		"NH-Inc":   {"1.925127353", "2.123809524", "3.000000000", "1.973898117", 0, 1462, 0, 1463},
	}
	rows := Figure3(Figure3Config{Seed: 1, Duration: 10 * simtime.Second, PCPUs: 15, Requests: 10})
	if len(rows) != len(wantFig3) {
		t.Fatalf("Figure3 returned %d rows, golden %d", len(rows), len(wantFig3))
	}
	f9 := func(v float64) string { return fmt.Sprintf("%.9f", v) }
	for _, r := range rows {
		w, ok := wantFig3[r.Group]
		if !ok {
			t.Errorf("Fig3 unexpected group %q", r.Group)
			continue
		}
		if got := f9(r.RTAReq); got != w.req {
			t.Errorf("Fig3 %s requested = %s, golden %s", r.Group, got, w.req)
		}
		if got := f9(r.RTXenAllocated); got != w.xenAlloc {
			t.Errorf("Fig3 %s RT-Xen allocated = %s, golden %s", r.Group, got, w.xenAlloc)
		}
		if got := f9(r.RTXenClaimed); got != w.xenClaim {
			t.Errorf("Fig3 %s RT-Xen claimed = %s, golden %s", r.Group, got, w.xenClaim)
		}
		if got := f9(r.RTVirtAllocated); got != w.rtvAlloc {
			t.Errorf("Fig3 %s RTVirt allocated = %s, golden %s", r.Group, got, w.rtvAlloc)
		}
		if int(r.RTXenMisses.Missed) != w.xenMissed || int(r.RTXenMisses.Judged) != w.xenJudged {
			t.Errorf("Fig3 %s RT-Xen misses = %d/%d, golden %d/%d",
				r.Group, r.RTXenMisses.Missed, r.RTXenMisses.Judged, w.xenMissed, w.xenJudged)
		}
		if int(r.RTVirtMisses.Missed) != w.rtvMissed || int(r.RTVirtMisses.Judged) != w.rtvJudged {
			t.Errorf("Fig3 %s RTVirt misses = %d/%d, golden %d/%d",
				r.Group, r.RTVirtMisses.Missed, r.RTVirtMisses.Judged, w.rtvMissed, w.rtvJudged)
		}
	}

	type t6Golden struct {
		admitted, requested, vms, vcpus int
		schedT, ctxT                    int64
		ovh                             string
		migrations                      int
		missed, judged                  int
	}
	wantT6 := map[string]t6Golden{
		"Multi/RTVirt":  {100, 100, 10, 20, 50116300, 27462000, "0.083164867", 13208, 12, 7923},
		"Multi/RT-Xen":  {90, 100, 9, 16, 307331400, 77852000, "0.294424267", 16720, 52, 7437},
		"Single/RTVirt": {100, 100, 100, 100, 116350000, 87778000, "0.213350000", 38299, 0, 7940},
		"Single/RT-Xen": {97, 100, 97, 97, 1414287900, 340696000, "1.452967267", 141489, 0, 7746},
	}
	t6cfg := Table6Config{Seed: 1, Duration: 10 * simtime.Second, PCPUs: 15}
	for _, sc := range []struct {
		scenario Table6Scenario
		key      string
	}{{MultiRTAVMs, "Multi"}, {SingleRTAVMs, "Single"}} {
		for _, r := range Table6(sc.scenario, t6cfg) {
			w, ok := wantT6[sc.key+"/"+r.Framework]
			if !ok {
				t.Errorf("T6 unexpected framework %q in %s", r.Framework, sc.key)
				continue
			}
			if int(r.RTAsAdmitted) != w.admitted || int(r.RTAsRequested) != w.requested {
				t.Errorf("T6 %s/%s admitted = %d/%d, golden %d/%d",
					sc.key, r.Framework, r.RTAsAdmitted, r.RTAsRequested, w.admitted, w.requested)
			}
			if r.VMs != w.vms || r.VCPUs != w.vcpus {
				t.Errorf("T6 %s/%s vms=%d vcpus=%d, golden vms=%d vcpus=%d",
					sc.key, r.Framework, r.VMs, r.VCPUs, w.vms, w.vcpus)
			}
			if int64(r.ScheduleTime) != w.schedT || int64(r.CtxSwitchTime) != w.ctxT {
				t.Errorf("T6 %s/%s schedT=%d ctxT=%d, golden schedT=%d ctxT=%d",
					sc.key, r.Framework, int64(r.ScheduleTime), int64(r.CtxSwitchTime), w.schedT, w.ctxT)
			}
			if got := f9(r.OverheadPct); got != w.ovh {
				t.Errorf("T6 %s/%s overhead = %s, golden %s", sc.key, r.Framework, got, w.ovh)
			}
			if int(r.Migrations) != w.migrations {
				t.Errorf("T6 %s/%s migrations = %d, golden %d", sc.key, r.Framework, r.Migrations, w.migrations)
			}
			if int(r.Misses.Missed) != w.missed || int(r.Misses.Judged) != w.judged {
				t.Errorf("T6 %s/%s misses = %d/%d, golden %d/%d",
					sc.key, r.Framework, r.Misses.Missed, r.Misses.Judged, w.missed, w.judged)
			}
		}
	}
}
