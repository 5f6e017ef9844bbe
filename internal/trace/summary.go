package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"rtvirt/internal/simtime"
)

// VCPUKey identifies a virtual CPU in a trace: its VM's name and its
// index within the VM.
type VCPUKey struct {
	VM   string
	VCPU int
}

// String renders the key as "vm/vcpu".
func (k VCPUKey) String() string { return k.VM + "/" + strconv.Itoa(k.VCPU) }

// VCPUSummary aggregates one virtual CPU's schedule from a trace.
type VCPUSummary struct {
	// Run is the CPU time the VCPU obtained: the total time dispatched
	// on any PCPU, whatever the scheduler charged for it.
	Run simtime.Duration
	// Dispatches counts how often the VCPU was put on a PCPU.
	Dispatches int
	// Migrations counts dispatches onto a different PCPU than the
	// previous one.
	Migrations int
	// Completions and Misses count the jobs that finished on the VCPU.
	Completions int
	Misses      int

	lastPCPU int // PCPU of the latest dispatch, -1 before the first
}

// PCPUSummary aggregates one physical CPU's schedule from a trace.
type PCPUSummary struct {
	PCPU int
	// Busy is the time the PCPU ran any VCPU.
	Busy simtime.Duration
	// Dispatches counts non-idle dispatch records on the PCPU.
	Dispatches int

	cur   *VCPUSummary // VCPU running since `since`, nil when idle
	since simtime.Time
}

// settle credits the PCPU's open run, if any, up to at.
func (p *PCPUSummary) settle(at simtime.Time) {
	if p.cur != nil {
		d := at.Sub(p.since)
		p.cur.Run += d
		p.Busy += d
		p.cur = nil
	}
}

// Summary is the structural digest of a schedule trace: who ran where,
// for how long, and how often work moved between physical CPUs. It is a
// Sink that folds in one event at a time, so it digests a run of any
// length in memory proportional to its VCPUs and PCPUs. It is computed
// purely from Dispatch/JobDone/JobMiss records, so its Run totals are the
// CPU time each VCPU obtained, measured apart from what the scheduler
// charged; the attack suite compares the two. The zero value is ready to
// use; call Close after the last event.
type Summary struct {
	// From and To bound the analyzed window: the first event, and the
	// last event until Close sets the instant open runs are settled at.
	From, To simtime.Time
	// VCPUs holds one digest per virtual CPU seen; Keys orders them.
	VCPUs map[VCPUKey]*VCPUSummary
	// PCPUs is indexed by physical CPU id.
	PCPUs []PCPUSummary
	// Migrations is the host-wide migration total, derived from the
	// dispatch sequence (so it also works on dispatch-only traces).
	Migrations int
	// Events tallies every consumed event by kind.
	Events Counts
}

// Consume implements Sink.
func (s *Summary) Consume(ev Event) {
	if s.VCPUs == nil { // the first event opens the window
		s.VCPUs = map[VCPUKey]*VCPUSummary{}
		s.From = ev.At
	}
	s.To = ev.At
	s.Events.Consume(ev)
	for len(s.PCPUs) <= ev.PCPU {
		s.PCPUs = append(s.PCPUs, PCPUSummary{PCPU: len(s.PCPUs)})
	}
	switch ev.Kind {
	case Dispatch:
		if ev.PCPU < 0 {
			return
		}
		p := &s.PCPUs[ev.PCPU]
		p.settle(ev.At)
		if ev.VM == "" { // idle
			return
		}
		v := s.vcpu(ev)
		v.Dispatches++
		p.Dispatches++
		if v.lastPCPU >= 0 && v.lastPCPU != ev.PCPU {
			v.Migrations++
			s.Migrations++
		}
		v.lastPCPU = ev.PCPU
		p.cur, p.since = v, ev.At
	case JobDone:
		s.vcpu(ev).Completions++
	case JobMiss:
		v := s.vcpu(ev)
		v.Completions++
		v.Misses++
	}
}

// vcpu returns the digest of ev's VCPU, creating it on first sight.
func (s *Summary) vcpu(ev Event) *VCPUSummary {
	k := VCPUKey{VM: ev.VM, VCPU: ev.VCPU}
	v := s.VCPUs[k]
	if v == nil {
		v = &VCPUSummary{lastPCPU: -1}
		s.VCPUs[k] = v
	}
	return v
}

// Close settles every open run at the instant at, which becomes the end
// of the window, so totals never exceed the observed span. Call it once,
// after the last event.
func (s *Summary) Close(at simtime.Time) {
	for p := range s.PCPUs {
		s.PCPUs[p].settle(at)
	}
	s.To = at
}

// Keys returns the VCPU keys in (VM, VCPU) order.
func (s *Summary) Keys() []VCPUKey {
	keys := make([]VCPUKey, 0, len(s.VCPUs))
	for k := range s.VCPUs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].VM != keys[j].VM {
			return keys[i].VM < keys[j].VM
		}
		return keys[i].VCPU < keys[j].VCPU
	})
	return keys
}

// Window is the trace's observed duration.
func (s *Summary) Window() simtime.Duration { return s.To.Sub(s.From) }

// Write renders the summary as a fixed-width report.
func (s *Summary) Write(w io.Writer) error {
	win := s.Window()
	if _, err := fmt.Fprintf(w, "schedule summary over %v\n", win); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %12s %6s %10s %10s %6s %6s\n",
		"vcpu", "run", "cpu%", "dispatches", "migrations", "done", "miss")
	for _, k := range s.Keys() {
		v := s.VCPUs[k]
		pct := 0.0
		if win > 0 {
			pct = 100 * float64(v.Run) / float64(win)
		}
		fmt.Fprintf(w, "%-20s %12v %5.1f%% %10d %10d %6d %6d\n",
			k, v.Run, pct, v.Dispatches, v.Migrations, v.Completions, v.Misses)
	}
	fmt.Fprintf(w, "%-20s %12s %6s %10s\n", "pcpu", "busy", "util%", "dispatches")
	for _, p := range s.PCPUs {
		pct := 0.0
		if win > 0 {
			pct = 100 * float64(p.Busy) / float64(win)
		}
		fmt.Fprintf(w, "pcpu%-16d %12v %5.1f%% %10d\n", p.PCPU, p.Busy, pct, p.Dispatches)
	}
	fmt.Fprintf(w, "host migrations: %d\n", s.Migrations)
	_, err := fmt.Fprintf(w, "events: %s\n", s.Events)
	return err
}
