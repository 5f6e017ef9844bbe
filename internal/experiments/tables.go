// Package experiments contains one driver per table and figure of the
// RTVirt paper's evaluation (§4). Each driver builds the scenario on the
// simulated host, runs it, and returns a structured result that the bench
// harness and cmd/rtvirt-bench render.
package experiments

import (
	"fmt"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func pp(s, p int64) task.Params {
	return task.Params{Slice: ms(s), Period: ms(p)}
}

// RTAGroup is one row of Table 1 (or Table 5): a named set of RTAs.
type RTAGroup struct {
	Name     string
	Category string
	RTAs     []task.Params
}

// Bandwidth sums the group's task bandwidths in CPUs.
func (g RTAGroup) Bandwidth() float64 {
	var sum float64
	for _, p := range g.RTAs {
		sum += p.Bandwidth()
	}
	return sum
}

// Table1Groups reproduces Table 1: the periodic RTA groups of §4.2.
func Table1Groups() []RTAGroup {
	return []RTAGroup{
		{Name: "H-Equiv", Category: "Harmonic", RTAs: []task.Params{pp(13, 20), pp(25, 40), pp(49, 80), pp(19, 100)}},
		{Name: "H-Dec", Category: "Harmonic", RTAs: []task.Params{pp(7, 10), pp(13, 20), pp(18, 40), pp(13, 100)}},
		{Name: "H-Inc", Category: "Harmonic", RTAs: []task.Params{pp(5, 10), pp(13, 20), pp(31, 40), pp(10, 100)}},
		{Name: "NH-Equiv", Category: "Non-harmonic", RTAs: []task.Params{pp(13, 20), pp(26, 40), pp(39, 60), pp(13, 100)}},
		{Name: "NH-Dec", Category: "Non-harmonic", RTAs: []task.Params{pp(23, 30), pp(13, 20), pp(5, 10), pp(10, 100)}},
		{Name: "NH-Inc", Category: "Non-harmonic", RTAs: []task.Params{pp(11, 21), pp(26, 43), pp(40, 60), pp(13, 100)}},
	}
}

// Table5Groups reproduces Table 5: the RTA groups of the scalability
// experiments (§4.5).
func Table5Groups() []RTAGroup {
	mk := func(i int, s, p int64) RTAGroup {
		return RTAGroup{Name: groupName(i), RTAs: []task.Params{pp(s, p)}}
	}
	return []RTAGroup{
		mk(1, 6, 75), mk(2, 7, 92), mk(3, 46, 188), mk(4, 12, 102), mk(5, 19, 139),
		mk(6, 13, 124), mk(7, 36, 260), mk(8, 21, 159), mk(9, 9, 103), mk(10, 62, 208),
	}
}

func groupName(i int) string { return fmt.Sprintf("Group %d", i) }
