package hv

import (
	"testing"

	"rtvirt/internal/dist"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// TestConstCostNeverDraws pins the property the golden tests ride on: a
// constant cost term returns its value without advancing the RNG, so the
// all-constant default model leaves the cost stream untouched.
func TestConstCostNeverDraws(t *testing.T) {
	r := sim.NewRNG(99)
	ref := sim.NewRNG(99)
	c := ConstCost(simtime.Micros(7))
	for i := 0; i < 5; i++ {
		if got := c.Sample(r); got != simtime.Micros(7) {
			t.Fatalf("sample %d = %v, want 7µs", i, got)
		}
	}
	var zero Cost
	if got := zero.Sample(r); got != 0 {
		t.Fatalf("zero Cost sampled %v, want exactly 0", got)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("constant samples advanced the RNG stream")
	}
	if !ConstCost(0).Constant() || !zero.Constant() {
		t.Fatal("constant terms must report Constant()")
	}
}

// TestDistCostDraws checks distribution terms do consume the stream and
// respect the distribution's support.
func TestDistCostDraws(t *testing.T) {
	r := sim.NewRNG(99)
	ref := sim.NewRNG(99)
	c := DistCost(dist.Uniform{Lo: simtime.Micros(2), Hi: simtime.Micros(4)})
	if c.Constant() {
		t.Fatal("distribution term reports Constant()")
	}
	for i := 0; i < 100; i++ {
		got := c.Sample(r)
		if got < simtime.Micros(2) || got > simtime.Micros(4) {
			t.Fatalf("sample %d = %v outside [2µs, 4µs]", i, got)
		}
	}
	if r.Uint64() == ref.Uint64() {
		t.Fatal("distribution samples did not advance the RNG stream")
	}
}

// TestHypercallCostPerFlag checks flag-specific selection and the
// SetHypercall broadcast.
func TestHypercallCostPerFlag(t *testing.T) {
	var m CostModel
	m.HypercallIncBW = ConstCost(simtime.Micros(1))
	m.HypercallDecBW = ConstCost(simtime.Micros(2))
	m.HypercallIncDecBW = ConstCost(simtime.Micros(3))
	for _, tc := range []struct {
		flag HypercallFlag
		want simtime.Duration
	}{
		{IncBW, simtime.Micros(1)},
		{DecBW, simtime.Micros(2)},
		{IncDecBW, simtime.Micros(3)},
	} {
		if got := m.HypercallCost(tc.flag).Mean(); got != tc.want {
			t.Errorf("HypercallCost(%v) = %v, want %v", tc.flag, got, tc.want)
		}
	}
	m.SetHypercall(ConstCost(simtime.Micros(9)))
	if m.HypercallIncBW.Mean() != simtime.Micros(9) ||
		m.HypercallDecBW.Mean() != simtime.Micros(9) ||
		m.HypercallIncDecBW.Mean() != simtime.Micros(9) {
		t.Error("SetHypercall did not broadcast to every flag")
	}
}

// TestModelConstant pins which stock models can touch the cost stream.
func TestModelConstant(t *testing.T) {
	def := DefaultCosts()
	if !def.Constant() {
		t.Error("DefaultCosts must be all-constant (golden bit-identity depends on it)")
	}
	cal := CalibratedCosts()
	if cal.Constant() {
		t.Error("CalibratedCosts should carry distribution terms")
	}
	var zero CostModel
	if !zero.Constant() {
		t.Error("zero model must be constant")
	}
}

// TestCtxSwitchWarmCold exercises the cache-state keying directly: a VCPU
// that never ran is cold everywhere, one that last ran on p is warm on p
// and cold elsewhere, and going idle (nil incoming VCPU) is warm.
func TestCtxSwitchWarmCold(t *testing.T) {
	var m CostModel
	m.CtxSwitchWarm = ConstCost(simtime.Micros(1))
	m.CtxSwitchCold = ConstCost(simtime.Micros(9))
	_, h := simAndHost(t, 2, m)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, err := vm.AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := h.PCPUs()[0], h.PCPUs()[1]
	if got := h.ctxSwitchCost(p0, v); got != simtime.Micros(9) {
		t.Errorf("first dispatch = %v, want cold 9µs", got)
	}
	h.hot[v.ID].LastPCPU = int32(p0.ID)
	if got := h.ctxSwitchCost(p0, v); got != simtime.Micros(1) {
		t.Errorf("same-PCPU resume = %v, want warm 1µs", got)
	}
	if got := h.ctxSwitchCost(p1, v); got != simtime.Micros(9) {
		t.Errorf("cross-PCPU resume = %v, want cold 9µs", got)
	}
	if got := h.ctxSwitchCost(p1, nil); got != simtime.Micros(1) {
		t.Errorf("going idle = %v, want warm 1µs", got)
	}
}

// TestMigrationCostScalesWithWorkingSet checks the per-MiB term rides on
// the VM's declared working set.
func TestMigrationCostScalesWithWorkingSet(t *testing.T) {
	var m CostModel
	m.Migration = ConstCost(simtime.Micros(3))
	m.MigrationPerMiB = ConstCost(10 * simtime.Nanosecond)
	_, h := simAndHost(t, 2, m)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, err := vm.AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.migrationCost(v); got != simtime.Micros(3) {
		t.Errorf("zero working set: migration = %v, want the fixed 3µs", got)
	}
	vm.WorkingSetMiB = 100
	want := simtime.Micros(3) + 100*10*simtime.Nanosecond
	if got := h.migrationCost(v); got != want {
		t.Errorf("100MiB working set: migration = %v, want %v", got, want)
	}
}

// TestMigrationAccountingWithWorkingSet re-runs the migration-bounce world
// with a per-MiB term armed and checks the meter scales exactly.
func TestMigrationAccountingWithWorkingSet(t *testing.T) {
	var m CostModel
	m.Migration = ConstCost(simtime.Micros(5))
	m.MigrationPerMiB = ConstCost(20 * simtime.Nanosecond)
	s, h := simAndHost(t, 2, m)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	vm.WorkingSetMiB = 50
	v, err := vm.AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	tk := task.NewBackground(0, "hog")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(50)), now)
	})
	s.RunFor(simtime.Millis(100))
	if h.Overhead.Migrations == 0 {
		t.Fatal("no migrations in the bounce world")
	}
	perMig := simtime.Micros(5) + 50*20*simtime.Nanosecond
	want := simtime.Duration(h.Overhead.Migrations) * perMig
	if h.Overhead.MigrationTime != want {
		t.Fatalf("MigrationTime = %v, want %v (%d × %v)",
			h.Overhead.MigrationTime, want, h.Overhead.Migrations, perMig)
	}
}
