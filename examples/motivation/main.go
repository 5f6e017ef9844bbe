// Command motivation reproduces the paper's Figure 1: the same four
// real-time applications across three VMs on one CPU, first under
// uncoordinated two-level EDF scheduling — where RTA2 misses its deadlines
// persistently even though the CPU has exactly enough bandwidth — and then
// under RTVirt's cross-layer scheduling, where every deadline is met.
package main

import (
	"fmt"
	"log"

	"rtvirt"
)

func main() {
	fmt.Println("Reproducing the motivating example of §2 (Figure 1):")
	fmt.Println("  VM1 hosts RTA1 (1ms,15ms) and RTA2 (4ms,15ms, out of phase);")
	fmt.Println("  VM2 runs (5ms,10ms); VM3 runs (5ms,30ms); one physical CPU.")
	fmt.Println()

	result := rtvirt.Figure1(1, 30*rtvirt.Second)
	fmt.Println(result.Render())

	// Re-create the figure's timeline: 60ms of the RTVirt schedule, one
	// character per 0.5ms (digits name the VM occupying the CPU).
	fmt.Println("RTVirt schedule, first 60ms (1=VM1 2=VM2 3=VM3, '.'=idle):")
	fmt.Print(renderTimeline())

	fmt.Println()
	fmt.Println("Both levels run EDF in the baseline, yet RTA2 misses: the VMM")
	fmt.Println("does not know when RTA2 needs the CPU, and the guest cannot")
	fmt.Println("influence when its VM is scheduled. RTVirt's cross-layer channel")
	fmt.Println("(the sched_rtvirt() hypercall plus shared-memory deadlines) gives")
	fmt.Println("the DP-WRAP host scheduler exactly the information it needs.")
}

// renderTimeline runs the RTVirt arm once more with tracing enabled and
// renders a Gantt row like Figure 1a.
func renderTimeline() string {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	cfg.Costs = rtvirt.CostModel{}
	cfg.Slack = 100 * rtvirt.Microsecond
	sys := rtvirt.NewSystem(cfg)
	rec := &rtvirt.TraceRecorder{}
	rtvirt.AttachTracer(sys, rec)

	specs := []struct {
		vm    string
		tasks []rtvirt.Params
		phase []rtvirt.Time
	}{
		{"1", []rtvirt.Params{
			{Slice: 1 * rtvirt.Millisecond, Period: 15 * rtvirt.Millisecond},
			{Slice: 4 * rtvirt.Millisecond, Period: 15 * rtvirt.Millisecond},
		}, []rtvirt.Time{0, rtvirt.Time(2 * rtvirt.Millisecond)}},
		{"2", []rtvirt.Params{{Slice: 4500 * rtvirt.Microsecond, Period: 10 * rtvirt.Millisecond}},
			[]rtvirt.Time{0}},
		{"3", []rtvirt.Params{{Slice: 5 * rtvirt.Millisecond, Period: 30 * rtvirt.Millisecond}},
			[]rtvirt.Time{0}},
	}
	id := 0
	type started struct {
		g  *rtvirt.Guest
		t  *rtvirt.Task
		at rtvirt.Time
	}
	var all []started
	for _, sp := range specs {
		g, err := sys.NewGuest(sp.vm, 1)
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range sp.tasks {
			t := rtvirt.NewTask(id, fmt.Sprintf("t%d", id), rtvirt.Periodic, p)
			id++
			if err := g.Register(t); err != nil {
				log.Fatal(err)
			}
			all = append(all, started{g, t, sp.phase[i]})
		}
	}
	sys.Start()
	for _, st := range all {
		st.g.StartPeriodic(st.t, st.at)
	}
	sys.Run(60 * rtvirt.Millisecond)
	return rec.Timeline(1, 0, rtvirt.Time(60*rtvirt.Millisecond), 120)
}
