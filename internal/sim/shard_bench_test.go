package sim

import (
	"testing"

	"rtvirt/internal/simtime"
)

// BenchmarkShardWindow times the PDES barrier round on the 64-host rack
// cluster's topology: the h+1 → h and h+2 → h client ring at the
// 120/180/260µs rack delays, every shard ticking every 20–120µs and
// mailing a neighbour on every other tick, each message relayed for up
// to two more hops. Handlers do almost nothing, so ns/window is
// dominated by window selection, the drain and the heap updates. One op
// is 20ms of simulated time, about 140 windows, on a warmed world; all
// ops run in one RunFor, as a cluster run does, so the topology seal is
// paid once per benchmark run rather than once per op.
func BenchmarkShardWindow(b *testing.B) {
	w := buildMeshWorld(1, 64, rackRingEdges(64), func(int) int { return 1 << 30 }, 2)
	w.set.RunFor(simtime.Millis(20))
	msgs := func() (n int) {
		for _, nd := range w.nodes {
			n += nd.recvd
		}
		return n
	}
	windows, events, sent := w.set.Windows(), w.set.EventsFired(), msgs()
	b.ReportAllocs()
	b.ResetTimer()
	w.set.RunFor(simtime.Duration(b.N) * simtime.Millis(20))
	b.StopTimer()
	windows, events, sent = w.set.Windows()-windows, w.set.EventsFired()-events, msgs()-sent
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
	b.ReportMetric(float64(events)/float64(windows), "events/window")
	b.ReportMetric(float64(sent)/float64(windows), "msgs/window")
}
