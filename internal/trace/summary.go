package trace

import (
	"fmt"
	"io"
	"sort"

	"rtvirt/internal/simtime"
)

// VCPUSummary aggregates one virtual CPU's schedule from a trace.
type VCPUSummary struct {
	// VM and VCPU identify the virtual CPU.
	VM   string
	VCPU int
	// Run is the total time dispatched on any PCPU.
	Run simtime.Duration
	// Dispatches counts how often the VCPU was put on a PCPU.
	Dispatches int
	// Migrations counts dispatches onto a different PCPU than the
	// previous one.
	Migrations int
	// Completions and Misses count the jobs that finished on the VCPU.
	Completions int
	Misses      int
}

// PCPUSummary aggregates one physical CPU's schedule from a trace.
type PCPUSummary struct {
	PCPU int
	// Busy is the time the PCPU ran any VCPU.
	Busy simtime.Duration
	// Dispatches counts non-idle dispatch records on the PCPU.
	Dispatches int
}

// Summary is the structural digest of a schedule trace: who ran where,
// for how long, and how often work moved between physical CPUs. It is
// computed purely from Dispatch/JobDone/JobMiss records, so it can
// cross-check the kernel's own accounting meters.
type Summary struct {
	// From and To bound the analyzed window (first and last record, with
	// open intervals closed at To).
	From, To simtime.Time
	// VCPUs is keyed by "vm/vcpu" display order; see Keys.
	VCPUs map[string]*VCPUSummary
	// PCPUs is indexed by physical CPU id.
	PCPUs []PCPUSummary
	// Migrations is the host-wide migration total, derived from the
	// dispatch sequence (so it also works on dispatch-only traces).
	Migrations int
	// Events tallies every retained event by kind.
	Events Counts
	// Dropped is the number of events the recorder's cap discarded; the
	// digest above covers only the retained prefix when it is non-zero.
	Dropped int
}

// Summarize digests the recorder's records. Open run intervals (a VCPU
// still dispatched at the last record) are closed at the trace's final
// timestamp, so totals never exceed the observed window.
func Summarize(r *Recorder) Summary {
	recs := r.Records()
	s := Summary{VCPUs: map[string]*VCPUSummary{}, Dropped: r.Dropped()}
	if len(recs) == 0 {
		return s
	}
	s.Events = r.Counts()
	s.From = recs[0].At
	s.To = recs[len(recs)-1].At

	maxPCPU := 0
	for _, rec := range recs {
		if rec.PCPU > maxPCPU {
			maxPCPU = rec.PCPU
		}
	}
	s.PCPUs = make([]PCPUSummary, maxPCPU+1)
	for i := range s.PCPUs {
		s.PCPUs[i].PCPU = i
	}

	type running struct {
		key   string
		since simtime.Time
	}
	cur := make([]*running, maxPCPU+1) // per-PCPU current occupant
	lastPCPU := map[string]int{}       // key -> last PCPU it ran on

	vc := func(rec Event) *VCPUSummary {
		key := fmt.Sprintf("%s/%d", rec.VM, rec.VCPU)
		v := s.VCPUs[key]
		if v == nil {
			v = &VCPUSummary{VM: rec.VM, VCPU: rec.VCPU}
			s.VCPUs[key] = v
		}
		return v
	}
	closeRun := func(p int, until simtime.Time) {
		if run := cur[p]; run != nil {
			d := until.Sub(run.since)
			s.VCPUs[run.key].Run += d
			s.PCPUs[p].Busy += d
			cur[p] = nil
		}
	}

	for _, rec := range recs {
		switch rec.Kind {
		case Dispatch:
			closeRun(rec.PCPU, rec.At)
			if rec.VM == "" { // idle
				continue
			}
			v := vc(rec)
			key := fmt.Sprintf("%s/%d", rec.VM, rec.VCPU)
			v.Dispatches++
			s.PCPUs[rec.PCPU].Dispatches++
			if prev, ok := lastPCPU[key]; ok && prev != rec.PCPU {
				v.Migrations++
				s.Migrations++
			}
			lastPCPU[key] = rec.PCPU
			cur[rec.PCPU] = &running{key: key, since: rec.At}
		case JobDone:
			vc(rec).Completions++
		case JobMiss:
			v := vc(rec)
			v.Completions++
			v.Misses++
		}
	}
	for p := range cur {
		closeRun(p, s.To)
	}
	return s
}

// Keys returns the VCPU summary keys in (VM, VCPU) order.
func (s Summary) Keys() []string {
	keys := make([]string, 0, len(s.VCPUs))
	for k := range s.VCPUs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.VCPUs[keys[i]], s.VCPUs[keys[j]]
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.VCPU < b.VCPU
	})
	return keys
}

// Window is the trace's observed duration.
func (s Summary) Window() simtime.Duration { return s.To.Sub(s.From) }

// Write renders the summary as a fixed-width report.
func (s Summary) Write(w io.Writer) error {
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
	fmt.Fprintf(w, "events: %s\n", s.Events)
	var err error
	if s.Dropped > 0 {
		_, err = fmt.Fprintf(w, "dropped: %d events past the recorder cap (digest covers the retained prefix only)\n", s.Dropped)
	}
	return err
}
