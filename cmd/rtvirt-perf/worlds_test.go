package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"rtvirt/internal/experiments"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

var update = flag.Bool("update", false, "run every world at seed 1 and rewrite testdata/golden-seed1.json")

// bench7 is BENCH_7's record of the seed-1 64-host rack cluster.
var bench7 = clusterCounts{Events: 4772402, Requests: 1575933, Windows: 16005, Migrations: 8}

func clusterCountsOf(w *clusterWorld) clusterCounts {
	c := clusterCounts{Events: w.c.Set.EventsFired(), Windows: w.c.Set.Windows()}
	for _, cl := range w.clients {
		c.Requests += uint64(cl.Sent())
	}
	for _, d := range w.c.Deployments() {
		c.Migrations += d.Migrations
	}
	return c
}

// TestGoldens checks the seed-1 goldens cover every world and record
// BENCH_7's cluster counts. With -update it first reruns every world and
// rewrites them, refusing a cluster that has drifted from BENCH_7.
func TestGoldens(t *testing.T) {
	g := goldens
	if *update {
		g = goldenFile{Seed: 1, Digests: map[string]string{}}
		for _, w := range workloads {
			if g.Digests[w.world] != "" {
				continue
			}
			r, err := runOnce(w, 1, false, profiles{})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			g.Digests[w.world] = r.Digest
		}
		cw := newClusterWorld(1, 64, simtime.Seconds(2), 1)
		cw.run()
		g.Cluster64 = clusterCountsOf(cw)
		if g.Cluster64 != bench7 {
			t.Fatalf("seed-1 cluster counts %+v differ from BENCH_7's %+v", g.Cluster64, bench7)
		}
		buf, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden-seed1.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if g.Seed != 1 {
		t.Errorf("golden seed = %d, want 1", g.Seed)
	}
	for _, w := range workloads {
		if len(g.Digests[w.world]) != 64 {
			t.Errorf("no seed-1 golden digest for %s (world %s)", w.name, w.world)
		}
	}
	if g.Cluster64 != bench7 {
		t.Errorf("golden cluster counts %+v, want BENCH_7's %+v", g.Cluster64, bench7)
	}
}

func runWorlds(builders []func() world) []*hostWorld {
	var out []*hostWorld
	for _, b := range builders {
		w := b().(*hostWorld)
		w.run()
		out = append(out, w)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestFigure3Parity(t *testing.T) {
	d := simtime.Seconds(2)
	cfg := experiments.DefaultFigure3Config()
	cfg.Duration = d
	cfg.Parallel = 1
	want := experiments.Figure3(cfg)

	worlds := runWorlds(figure3Worlds(1, d))
	var got []experiments.Figure3Row
	for i, g := range table1Groups() {
		xen, rtv := worlds[2*i], worlds[2*i+1]
		got = append(got, experiments.Figure3Row{
			Group:           g.name,
			RTAReq:          g.bandwidth(),
			RTXenAllocated:  xen.allocatedCPUs,
			RTXenClaimed:    float64(xen.claimedCPUs),
			RTVirtAllocated: sum(rtv.guestBW),
			RTXenMisses:     workload.MissSummary(xen.tasks),
			RTVirtMisses:    workload.MissSummary(rtv.tasks),
			Interfaces:      xen.ifaces,
			RTVirtRes:       rtv.guestBW,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Figure 3 rows differ from experiments.Figure3:\n got %+v\nwant %+v", got, want)
	}
}

func TestTable6Parity(t *testing.T) {
	d := simtime.Seconds(2)
	worlds := runWorlds(table6Worlds(1, d))
	for i, sc := range []experiments.Table6Scenario{experiments.MultiRTAVMs, experiments.SingleRTAVMs} {
		want := experiments.Table6(sc, experiments.Table6Config{Seed: 1, Duration: d, PCPUs: 15, Parallel: 1})
		var got []experiments.Table6Row
		for j, framework := range []string{"RTVirt", "RT-Xen"} {
			w := worlds[2*i+j]
			o := w.sys.Overhead()
			got = append(got, experiments.Table6Row{
				Scenario: sc, Framework: framework,
				RTAsAdmitted: w.admitted, RTAsRequested: w.requested, VMs: w.vms, VCPUs: w.vcpus,
				ScheduleTime: o.ScheduleTime, CtxSwitchTime: o.CtxSwitchTime, OverheadPct: o.Percent,
				Migrations: o.Migrations, Misses: workload.MissSummary(w.tasks), Events: *w.events,
			})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Table 6 %v rows differ from experiments.Table6:\n got %+v\nwant %+v", sc, got, want)
		}
	}
}

func TestFigure5aParity(t *testing.T) {
	cfg := experiments.DefaultFigure5Config()
	cfg.Duration = simtime.Seconds(5)
	want := experiments.Figure5a(cfg)

	// The memcached VM's reserved bandwidth is a constant of each arm.
	allocated := map[string]float64{"Credit": 0.26, "RT-Xen A": 66.0 / 283.0,
		"RT-Xen B": 33.0 / 177.0, "RTVirt": 58.0 / 500.0}
	var got []experiments.Figure5Row
	for i, w := range runWorlds(figure5aWorlds(1, cfg.Duration)) {
		l := &w.mcs[0].Latency
		row := experiments.Figure5Row{
			Arm:         experiments.Arm(fig5Arms[i]),
			P999:        l.Percentile(99.9),
			Mean:        l.Mean(),
			Requests:    l.Count(),
			CDF:         l.CDF(),
			AllocatedBW: allocated[fig5Arms[i]],
		}
		row.SLOMet = row.P999 <= cfg.SLO
		got = append(got, row)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Figure 5a rows differ from experiments.Figure5a:\n got %+v\nwant %+v", got, want)
	}
}

func TestClusterDigestEqualAcrossGroups(t *testing.T) {
	var digests []string
	for _, groups := range []int{1, 2} {
		w := newClusterWorld(1, 8, simtime.Millis(200), groups)
		w.run()
		if w.c.Set.EventsFired() == 0 {
			t.Fatal("cluster fired no events")
		}
		digests = append(digests, w.c.DigestString())
	}
	if digests[0] != digests[1] {
		t.Errorf("digest at 2 groups differs from 1 group:\n%s\nvs\n%s", digests[1], digests[0])
	}
}
