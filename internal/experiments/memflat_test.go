package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/csa"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// mallocsDuring counts the heap allocations run makes. It first returns
// free memory to the OS, so the runtime's background scavenger has no
// work to schedule meanwhile (arming its timer can grow a timer heap,
// which would be counted as the simulation's). Like testing.AllocsPerRun,
// it measures with one P: restarting the world after ReadMemStats can
// otherwise wake the idle P on a new OS thread, whose m and g0 records
// are five heap objects that would be counted as the simulation's too.
func mallocsDuring(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMemoryFlat pins that a warm world's memory stays flat as simulated
// time grows: after one span has grown every pool, queue and scratch
// buffer to its peak, a second equal span allocates nothing. It covers
// the Figure 3 worlds (RTVirt's DP-WRAP host with pEDF guests, and RT-Xen's
// global-EDF servers over CSA interfaces) and the Figure 5a memcached
// world under each arm. The memcached latency recorder keeps every
// sample, so it grows with the request count; the test reserves its
// capacity before the second span, which leaves that growth as the only
// allocation the span could have made.
func TestMemoryFlat(t *testing.T) {
	group := Table1Groups()[0]
	cfg := DefaultFigure3Config()
	for _, rtxen := range []bool{false, true} {
		name := "fig3-dpwrap-pedf"
		if rtxen {
			name = "fig3-rtxen-gedf"
		}
		t.Run(name, func(t *testing.T) {
			var sys *core.System
			var ifaces []csa.Interface
			if rtxen {
				sys = newSys(core.RTXen, cfg)
				for _, p := range group.RTAs {
					iface, ok := csa.BestInterfaceQ([]task.Params{p},
						csa.DefaultCandidates([]task.Params{p}), ms(1))
					if !ok {
						t.Fatalf("no CSA interface for %v", p)
					}
					ifaces = append(ifaces, iface)
				}
			} else {
				sys = newSys(core.RTVirt, cfg)
			}
			tasks := deployGroup(sys, group, ifaces, cfg)
			span := 10 * simtime.Second
			sys.Run(span)
			if n := mallocsDuring(func() { sys.Run(span) }); n != 0 {
				t.Fatalf("second %v allocated %d times, want 0", span, n)
			}
			if st := tasks[0].Stats(); st.Completed < 900 {
				t.Fatalf("only %d jobs completed; the world did not run", st.Completed)
			}
		})
	}
	for _, arm := range Arms() {
		t.Run(fmt.Sprintf("fig5a-%s", arm), func(t *testing.T) {
			sys, mc := figure5aWorld(arm, 1)
			span := 60 * simtime.Second
			sys.Run(span)
			first := mc.Latency.Count()
			mc.Latency.Reserve(2 * first)
			if n := mallocsDuring(func() { sys.Run(span) }); n != 0 {
				t.Fatalf("second %v allocated %d times beyond latency samples, want 0", span, n)
			}
			if mc.Latency.Count() < first+first/2 {
				t.Fatalf("requests %d after the first span's %d; the world did not run", mc.Latency.Count(), first)
			}
		})
	}
}
