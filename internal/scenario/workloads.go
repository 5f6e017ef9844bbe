package scenario

import (
	"fmt"
	"math"

	"rtvirt/internal/guest"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

// This file holds the workload blocks a TaskSpec can carry beyond the
// plain periodic/sporadic shapes: open-loop arrival processes (diurnal,
// MMPP, flash-crowd production traffic), the adaptive bandwidth
// controller, and the tick-evader attack. All decode strictly — the outer
// decoder's DisallowUnknownFields recurses into these plain structs — and
// marshal canonically (omitempty everywhere), so a marshal/reparse round
// trip is lossless.

// ArrivalSpec selects exactly one open-loop arrival process for a
// sporadic task. When present, it replaces the Renewal gaps of the task's
// closed-form client, which then has no request cap.
type ArrivalSpec struct {
	Poisson *PoissonSpec    `json:"poisson,omitempty"`
	Diurnal *DiurnalSpec    `json:"diurnal,omitempty"`
	MMPP    *MMPPSpec       `json:"mmpp,omitempty"`
	Flash   *FlashCrowdSpec `json:"flash,omitempty"`
}

// PoissonSpec is a homogeneous Poisson stream.
type PoissonSpec struct {
	RateHz float64 `json:"rate_hz"`
}

// DiurnalSpec is the daily sine rate curve, trough base_hz to peak_hz
// over a (simulation-compressed) day.
type DiurnalSpec struct {
	BaseHz float64 `json:"base_hz"`
	PeakHz float64 `json:"peak_hz"`
	DayMS  int64   `json:"day_ms"`
	// Phase shifts the curve as a fraction of the day in [0, 1).
	Phase float64 `json:"phase,omitempty"`
}

// MMPPSpec is a cyclic Markov-modulated Poisson process: state i emits at
// rates_hz[i] and holds for an exponential sojourn with mean sojourn_ms[i].
type MMPPSpec struct {
	RatesHz   []float64 `json:"rates_hz"`
	SojournMS []int64   `json:"sojourn_ms"`
}

// FlashCrowdSpec is a Poisson floor with linear ramp/decay surges.
type FlashCrowdSpec struct {
	BaseHz float64     `json:"base_hz"`
	Surges []SurgeSpec `json:"surges"`
}

// SurgeSpec is one flash-crowd event.
type SurgeSpec struct {
	AtMS    int64   `json:"at_ms"`
	PeakHz  float64 `json:"peak_hz"`
	RampMS  int64   `json:"ramp_ms"`
	DecayMS int64   `json:"decay_ms"`
}

// badRate reports whether a rate is unusable.
func badRate(v float64) bool { return v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) }

// validate checks the spec names exactly one well-formed process.
func (a *ArrivalSpec) validate(taskName string) error {
	forms := 0
	for _, set := range []bool{a.Poisson != nil, a.Diurnal != nil, a.MMPP != nil, a.Flash != nil} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		return fmt.Errorf("scenario: task %q arrivals must name exactly one of poisson/diurnal/mmpp/flash (got %d)", taskName, forms)
	}
	switch {
	case a.Poisson != nil:
		if badRate(a.Poisson.RateHz) {
			return fmt.Errorf("scenario: task %q arrivals.poisson.rate_hz must be positive, got %v", taskName, a.Poisson.RateHz)
		}
	case a.Diurnal != nil:
		d := a.Diurnal
		if badRate(d.PeakHz) || d.BaseHz < 0 || math.IsNaN(d.BaseHz) || math.IsInf(d.BaseHz, 0) ||
			d.PeakHz < d.BaseHz || d.DayMS <= 0 || math.IsNaN(d.Phase) || d.Phase < 0 || d.Phase >= 1 {
			return fmt.Errorf("scenario: task %q arrivals.diurnal needs 0 ≤ base_hz ≤ peak_hz, day_ms > 0, phase in [0,1)", taskName)
		}
	case a.MMPP != nil:
		m := a.MMPP
		if len(m.RatesHz) == 0 || len(m.RatesHz) != len(m.SojournMS) {
			return fmt.Errorf("scenario: task %q arrivals.mmpp needs matching non-empty rates_hz/sojourn_ms (got %d/%d)",
				taskName, len(m.RatesHz), len(m.SojournMS))
		}
		for i, r := range m.RatesHz {
			if badRate(r) || m.SojournMS[i] <= 0 {
				return fmt.Errorf("scenario: task %q arrivals.mmpp state %d needs rate_hz > 0 and sojourn_ms > 0", taskName, i)
			}
		}
	case a.Flash != nil:
		f := a.Flash
		if badRate(f.BaseHz) {
			return fmt.Errorf("scenario: task %q arrivals.flash.base_hz must be positive, got %v", taskName, f.BaseHz)
		}
		for i, s := range f.Surges {
			if badRate(s.PeakHz) || s.AtMS < 0 || s.RampMS <= 0 || s.DecayMS <= 0 {
				return fmt.Errorf("scenario: task %q arrivals.flash surge %d needs peak_hz > 0, at_ms ≥ 0, ramp_ms/decay_ms > 0", taskName, i)
			}
		}
	}
	return nil
}

// Process builds the workload.ArrivalProcess the spec names. The spec
// must be valid; exported so the sharded-PDES harness can drive remote
// clients from the same block.
func (a *ArrivalSpec) Process() workload.ArrivalProcess { return a.process() }

// process builds the workload.ArrivalProcess. The spec must have passed
// validate.
func (a *ArrivalSpec) process() workload.ArrivalProcess {
	switch {
	case a.Poisson != nil:
		return workload.Poisson{RateHz: a.Poisson.RateHz}
	case a.Diurnal != nil:
		return workload.Diurnal{
			BaseHz: a.Diurnal.BaseHz,
			PeakHz: a.Diurnal.PeakHz,
			Day:    simtime.Millis(a.Diurnal.DayMS),
			Phase:  a.Diurnal.Phase,
		}
	case a.MMPP != nil:
		sojourn := make([]simtime.Duration, len(a.MMPP.SojournMS))
		for i, ms := range a.MMPP.SojournMS {
			sojourn[i] = simtime.Millis(ms)
		}
		return workload.NewMMPP(append([]float64(nil), a.MMPP.RatesHz...), sojourn)
	case a.Flash != nil:
		surges := make([]workload.Surge, len(a.Flash.Surges))
		for i, s := range a.Flash.Surges {
			surges[i] = workload.Surge{
				At:     simtime.Time(simtime.Millis(s.AtMS)),
				PeakHz: s.PeakHz,
				Ramp:   simtime.Millis(s.RampMS),
				Decay:  simtime.Millis(s.DecayMS),
			}
		}
		return workload.FlashCrowd{BaseHz: a.Flash.BaseHz, Surges: surges}
	default:
		panic("scenario: process on empty ArrivalSpec")
	}
}

// AdaptiveSpec attaches a feedback controller to a periodic or sporadic
// task: it watches the task's response times on the trace bus and retunes
// the slice through the INC/DEC_BW hypercall path.
type AdaptiveSpec struct {
	// TargetUS is the per-window worst response-time target. Required.
	TargetUS int64 `json:"target_us"`
	// WindowMS is the observation window (default 100ms).
	WindowMS int64 `json:"window_ms,omitempty"`
	// MinSliceUS/MaxSliceUS bound the retuned slice (defaults: 100µs and
	// the task's period).
	MinSliceUS int64 `json:"min_slice_us,omitempty"`
	MaxSliceUS int64 `json:"max_slice_us,omitempty"`
	// Step is the multiplicative adjustment per decision (default 0.25).
	Step float64 `json:"step,omitempty"`
	// LowFraction/DecreaseAfter are the shrink hysteresis (defaults 0.5, 3).
	LowFraction   float64 `json:"low_fraction,omitempty"`
	DecreaseAfter int     `json:"decrease_after,omitempty"`
	// Backoff is the initial rejection backoff in windows (default 2).
	Backoff int `json:"backoff,omitempty"`
}

// validate checks the controller parameters.
func (a *AdaptiveSpec) validate(taskName string) error {
	if a.TargetUS <= 0 {
		return fmt.Errorf("scenario: task %q adaptive.target_us must be positive, got %d", taskName, a.TargetUS)
	}
	if a.WindowMS < 0 || a.MinSliceUS < 0 || a.MaxSliceUS < 0 || a.DecreaseAfter < 0 || a.Backoff < 0 {
		return fmt.Errorf("scenario: task %q adaptive has a negative field", taskName)
	}
	if a.MaxSliceUS > 0 && a.MinSliceUS > a.MaxSliceUS {
		return fmt.Errorf("scenario: task %q adaptive.min_slice_us %d above max_slice_us %d", taskName, a.MinSliceUS, a.MaxSliceUS)
	}
	if math.IsNaN(a.Step) || math.IsInf(a.Step, 0) || a.Step < 0 || a.Step >= 1 {
		return fmt.Errorf("scenario: task %q adaptive.step must be in [0, 1), got %v", taskName, a.Step)
	}
	if math.IsNaN(a.LowFraction) || math.IsInf(a.LowFraction, 0) || a.LowFraction < 0 || a.LowFraction > 1 {
		return fmt.Errorf("scenario: task %q adaptive.low_fraction must be in [0, 1], got %v", taskName, a.LowFraction)
	}
	return nil
}

// EvaderSpec tunes a kind:"evader" task — the Zhou et al. tick-evasion
// attacker. The zero value learns the tick period from latency spikes
// with the default probe parameters.
type EvaderSpec struct {
	// TickUS declares the host tick period so the attacker skips
	// learning; 0 learns it from probe latency spikes.
	TickUS int64 `json:"tick_us,omitempty"`
	// GuardUS is the sleep margin kept around each predicted tick
	// (default 500µs, clamped to period/8).
	GuardUS int64 `json:"guard_us,omitempty"`
}

// validate checks the attacker parameters.
func (e *EvaderSpec) validate(taskName string) error {
	if e.TickUS < 0 || e.GuardUS < 0 {
		return fmt.Errorf("scenario: task %q evader has a negative field", taskName)
	}
	return nil
}

// evaderConfig builds the workload config from the spec (nil = defaults).
func (e *EvaderSpec) evaderConfig() workload.EvaderConfig {
	cfg := workload.DefaultEvaderConfig()
	if e == nil {
		return cfg
	}
	if e.TickUS > 0 {
		cfg.TickPeriod = simtime.Micros(e.TickUS)
	}
	if e.GuardUS > 0 {
		cfg.Guard = simtime.Micros(e.GuardUS)
	}
	return cfg
}

// Config builds the guest controller config the spec names; exported so
// the sharded-PDES harness can attach the same controller per host.
func (a *AdaptiveSpec) Config() guest.AdaptiveConfig { return a.adaptiveConfig() }

// adaptiveConfig builds the guest controller config from the spec.
func (a *AdaptiveSpec) adaptiveConfig() guest.AdaptiveConfig {
	cfg := guest.AdaptiveConfig{
		Target:        simtime.Micros(a.TargetUS),
		Window:        simtime.Millis(a.WindowMS),
		MinSlice:      simtime.Micros(a.MinSliceUS),
		MaxSlice:      simtime.Micros(a.MaxSliceUS),
		Step:          a.Step,
		LowFraction:   a.LowFraction,
		DecreaseAfter: a.DecreaseAfter,
		Backoff:       a.Backoff,
	}
	return cfg
}
