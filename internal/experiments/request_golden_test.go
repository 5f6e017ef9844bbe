package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/simtime"
)

// The request-driven experiments that no other exact golden covers: the
// §4.2 sporadic Figure-3 variant (closed-form clients at Uniform(100ms, 1s)
// gaps) and the I/O-bound RPC (two-phase requests whose device waits draw
// from the request stream's RNG). Both pin every request the stream sends
// and every draw it makes, so a change to how requests are generated that
// moves one draw shows here.

const goldenSporadicFigure3 = `H-Equiv req=2.0775 xen=2.2833 rtv=2.1262 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
H-Dec req=1.9300 xen=2.1929 rtv=2.0225 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
H-Inc req=2.0250 xen=2.3278 rtv=2.1175 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
NH-Equiv req=2.0800 xen=2.2262 rtv=2.1308 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
NH-Dec req=2.0167 xen=2.3278 rtv=2.1133 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
NH-Inc req=1.9251 xen=2.1238 rtv=1.9739 xen(rel=40 miss=0 judged=40) rtv(rel=40 miss=0 judged=40)
`

const goldenSporadicDispatch = `H-Equiv dispatches=84 digest=ad8df096856a22ee
H-Dec dispatches=84 digest=3f5fba6180ee17ea
H-Inc dispatches=83 digest=13c2c6e3b0e65628
NH-Equiv dispatches=84 digest=0ad2859ef1d3ef6a
NH-Dec dispatches=85 digest=77ca3d7beddb4661
NH-Inc dispatches=84 digest=5155ba4debf8bd01
`

const goldenIOBound = `credit requests=998 e2e=18147300 cpu=8964576 violations=59
rtvirt requests=998 e2e=405890 cpu=139009 violations=0
`

func TestGoldenSporadicFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("eighteen 15 s simulations")
	}
	cfg := Figure3Config{Seed: 1, Duration: simtime.Seconds(10), PCPUs: 15, Sporadic: true, Requests: 10}
	rows := Figure3(cfg)
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s req=%.4f xen=%.4f rtv=%.4f xen(rel=%d miss=%d judged=%d) rtv(rel=%d miss=%d judged=%d)\n",
			r.Group, r.RTAReq, r.RTXenAllocated, r.RTVirtAllocated,
			r.RTXenMisses.Released, r.RTXenMisses.Missed, r.RTXenMisses.Judged,
			r.RTVirtMisses.Released, r.RTVirtMisses.Missed, r.RTVirtMisses.Judged)
	}
	if got := b.String(); got != goldenSporadicFigure3 {
		t.Errorf("sporadic Figure 3 at seed 1 moved:\ngot:\n%swant:\n%s", got, goldenSporadicFigure3)
	}

	// Every group finishes its 40 requests well inside the run, so the
	// counts above cannot see when each request arrived; the RTVirt arm's
	// dispatch stream can.
	b.Reset()
	for _, group := range Table1Groups() {
		sys := newSys(core.RTVirt, cfg)
		d := check.NewDispatchDigest()
		sys.Host.TraceTo(d)
		deployGroup(sys, group, nil, cfg)
		sys.Run(cfg.Duration + simtime.Seconds(5))
		fmt.Fprintf(&b, "%s dispatches=%d digest=%016x\n", group.Name, d.Events(), d.Sum())
	}
	if got := b.String(); got != goldenSporadicDispatch {
		t.Errorf("sporadic Figure 3 RTVirt dispatch streams moved:\ngot:\n%swant:\n%s", got, goldenSporadicDispatch)
	}
}

func TestGoldenIOBound(t *testing.T) {
	var b strings.Builder
	for _, r := range IOBound(1, 5*simtime.Second) {
		fmt.Fprintf(&b, "%v requests=%d e2e=%d cpu=%d violations=%d\n", r.Stack, r.Requests,
			int64(r.EndToEndP999), int64(r.CPUPhaseP999), r.Violations)
	}
	if got := b.String(); got != goldenIOBound {
		t.Errorf("IOBound at seed 1 moved:\ngot:\n%swant:\n%s", got, goldenIOBound)
	}
}
