package trace

import (
	"fmt"
	"io"
	"sort"

	"rtvirt/internal/simtime"
)

// svgPalette cycles across VMs.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// WriteSVG renders the trace as a Gantt chart (one lane per PCPU, one box
// per dispatch interval, coloured by VM; deadline misses drawn as red
// ticks) — a vector version of the paper's Figure 1 timelines.
func (r *Recorder) WriteSVG(w io.Writer, pcpus int, from, to simtime.Time) error {
	if to <= from || pcpus <= 0 {
		return fmt.Errorf("trace: invalid SVG window [%v, %v) × %d pcpus", from, to, pcpus)
	}
	const (
		width      = 1000.0
		laneHeight = 34.0
		laneGap    = 10.0
		marginL    = 64.0
		marginT    = 24.0
		legendH    = 26.0
	)
	span := float64(to.Sub(from))
	x := func(t simtime.Time) float64 {
		return marginL + width*float64(t.Sub(from))/span
	}
	height := marginT + float64(pcpus)*(laneHeight+laneGap) + legendH + 20

	// Collect per-PCPU dispatch segments and the VM → colour mapping.
	type segment struct {
		vm       string
		from, to simtime.Time
	}
	lanes := make([][]segment, pcpus)
	cur := make([]*segment, pcpus)
	vmNames := map[string]bool{}
	closeSeg := func(p int, at simtime.Time) {
		if cur[p] != nil {
			s := *cur[p]
			s.to = at
			if s.to > s.from && s.vm != "" {
				lanes[p] = append(lanes[p], s)
			}
			cur[p] = nil
		}
	}
	var misses []Event
	for _, rec := range r.events {
		if rec.At > to {
			break
		}
		switch rec.Kind {
		case Dispatch:
			if rec.PCPU < 0 || rec.PCPU >= pcpus {
				continue
			}
			at := rec.At
			if at < from {
				at = from
			}
			closeSeg(rec.PCPU, at)
			cur[rec.PCPU] = &segment{vm: rec.VM, from: at}
			if rec.VM != "" {
				vmNames[rec.VM] = true
			}
		case JobMiss:
			if rec.At >= from {
				misses = append(misses, rec)
			}
		}
	}
	for p := 0; p < pcpus; p++ {
		closeSeg(p, to)
	}
	names := make([]string, 0, len(vmNames))
	for n := range vmNames {
		names = append(names, n)
	}
	sort.Strings(names)
	color := map[string]string{}
	for i, n := range names {
		color[n] = svgPalette[i%len(svgPalette)]
	}

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" font-family="sans-serif" font-size="12">`+"\n",
		marginL+width+20, height)
	fmt.Fprintf(w, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	for p := 0; p < pcpus; p++ {
		y := marginT + float64(p)*(laneHeight+laneGap)
		fmt.Fprintf(w, `<text x="6" y="%.1f">pcpu%d</text>`+"\n", y+laneHeight*0.65, p)
		fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f4f4f4" stroke="#ccc"/>`+"\n",
			marginL, y, width, laneHeight)
		for _, s := range lanes[p] {
			fmt.Fprintf(w, `<rect x="%.2f" y="%.1f" width="%.2f" height="%.1f" fill="%s"><title>%s %v–%v</title></rect>`+"\n",
				x(s.from), y+2, x(s.to)-x(s.from), laneHeight-4, color[s.vm], s.vm, s.from, s.to)
		}
	}
	// Misses: red ticks above the lane of the task's PCPU (or lane 0).
	for _, m := range misses {
		p := m.PCPU
		if p < 0 || p >= pcpus {
			p = 0
		}
		y := marginT + float64(p)*(laneHeight+laneGap)
		fmt.Fprintf(w, `<line x1="%.2f" y1="%.1f" x2="%.2f" y2="%.1f" stroke="red" stroke-width="2"><title>miss: %s (+%v)</title></line>`+"\n",
			x(m.At), y-6, x(m.At), y+2, m.Task, m.ArgDuration())
	}
	// Time axis.
	axisY := marginT + float64(pcpus)*(laneHeight+laneGap)
	for i := 0; i <= 10; i++ {
		t := from.Add(simtime.ScaleDuration(to.Sub(from), int64(i), 10))
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#555">%v</text>`+"\n",
			x(t), axisY+14, t)
	}
	// Legend.
	lx := marginL
	ly := axisY + legendH
	for _, n := range names {
		fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="12" height="12" fill="%s"/>`+"\n", lx, ly, color[n])
		fmt.Fprintf(w, `<text x="%.1f" y="%.1f">%s</text>`+"\n", lx+16, ly+11, n)
		lx += 20 + 8*float64(len(n)) + 16
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}
