package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFrameLayers(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"rtvirt/internal/eventq.(*Queue).siftDown"}, "eventq"},
		{[]string{"rtvirt/internal/sched/rtxen.(*Scheduler).pickEDF"}, "sched.rtxen"},
		{[]string{"rtvirt/internal/simtime.Time.Add", "rtvirt/internal/hv.(*Host).advance"}, "support"},
		{[]string{"rtvirt/internal/csa.BestInterfaceQ"}, "other"},
		// sim.pdes is split from sim by receiver.
		{[]string{"rtvirt/internal/sim.(*ShardSet).RunUntil"}, "sim.pdes"},
		{[]string{"rtvirt/internal/sim.(*ShardSet).RunUntil.func1"}, "sim.pdes"},
		{[]string{"rtvirt/internal/sim.(*Shard).PostRemote"}, "sim.pdes"},
		{[]string{"rtvirt/internal/sim.(*shardHeap).siftDown"}, "sim.pdes"},
		{[]string{"rtvirt/internal/sim.msgLess"}, "sim.pdes"},
		{[]string{"rtvirt/internal/sim.(*Simulator).runWindow"}, "sim"},
		{[]string{"rtvirt/internal/sim.(*Simulator).fireAt"}, "sim"},
		// The go.* buckets.
		{[]string{"runtime.mallocgc", "rtvirt/internal/task.(*Task).Release"}, "go.alloc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgcSmallScanNoHeader", "runtime.mallocgc"}, "go.alloc"},
		{[]string{"runtime.growslice", "rtvirt/internal/cluster.(*hostAgent).request"}, "go.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable"}, "go.sched"},
		{[]string{"runtime.procyield", "runtime.Gosched", "rtvirt/internal/runner.(*BarrierPool).join"}, "go.sched"},
		{[]string{"sync.(*Cond).Wait", "rtvirt/internal/runner.(*BarrierPool).awaitSense"}, "go.sched"},
		// Helpers are charged to their caller.
		{[]string{"runtime.memmove", "rtvirt/internal/sim.(*ShardSet).drainFrom"}, "sim.pdes"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "rtvirt/internal/cluster.(*hostAgent).request"}, "cluster"},
		{[]string{"slices.Sort[...]", "rtvirt/internal/sim.(*ShardSet).selectUniform"}, "sim.pdes"},
		{[]string{"runtime.memmove"}, "other"},
		{[]string{"main.main"}, "other"},
	}
	for _, c := range cases {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("stackLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) uvarint(x uint64) { p.Write(binary.AppendUvarint(nil, x)) }

func (p *pb) int(field int, x uint64) {
	p.uvarint(uint64(field)<<3 | 0)
	p.uvarint(x)
}

func (p *pb) msg(field int, b []byte) {
	p.uvarint(uint64(field)<<3 | 2)
	p.uvarint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) packed(field int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.uvarint(x)
	}
	p.msg(field, q.Bytes())
}

// testProfile encodes a CPU profile with two samples: one whose leaf
// location holds a frame inlined into its caller, and one whose leaf is a
// runtime helper below a PDES method.
func testProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"rtvirt/internal/simtime.Time.Add", "rtvirt/internal/eventq.(*Queue).Fire",
		"runtime.memmove", "rtvirt/internal/sim.(*ShardSet).drainFrom"}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type: samples/count, cpu/nanoseconds
		var v pb
		v.int(1, st[0])
		v.int(2, st[1])
		p.msg(1, v.Bytes())
	}
	for _, s := range []struct{ locs, vals []uint64 }{{[]uint64{1}, []uint64{3, 30e6}}, {[]uint64{2, 3}, []uint64{1, 10e6}}} {
		var m pb
		m.packed(1, s.locs...)
		m.packed(2, s.vals...)
		p.msg(2, m.Bytes())
	}
	// Location 1: Time.Add inlined into Queue.Fire (innermost line first).
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l pb
		l.int(1, loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.int(1, fn)
			line.int(2, 10)
			l.msg(4, line.Bytes())
		}
		p.msg(4, l.Bytes())
	}
	for id := uint64(1); id <= 4; id++ {
		var f pb
		f.int(1, id)
		f.int(2, id+4) // name: strs[5..8]
		p.msg(5, f.Bytes())
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestDecodeInlinedFrames(t *testing.T) {
	samples, err := decodeProfile(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(samples))
	}
	want := []string{"rtvirt/internal/simtime.Time.Add", "rtvirt/internal/eventq.(*Queue).Fire"}
	if s := samples[0]; s.ns != 30e6 || strings.Join(s.stack, ",") != strings.Join(want, ",") {
		t.Errorf("sample 0 = %d ns %v, want 30e6 ns %v", s.ns, s.stack, want)
	}
	got, err := layerTimes(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	// The inlined leaf is charged, not the function it was inlined into.
	if got["support"] != 30e6 || got["eventq"] != 0 || got["sim.pdes"] != 10e6 {
		t.Errorf("layer times = %v, want support 30ms and sim.pdes 10ms", got)
	}
	if len(got) != len(layers) {
		t.Errorf("layer times have %d layers, want all %d", len(got), len(layers))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := testProfile(t)
	if _, err := decodeProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream decoded without error")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample claiming 127 bytes, holding 1
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("truncated protobuf decoded without error")
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestProfileOfBusyFunction profiles a function of this package and
// checks the decoder finds it as the leaf of most samples, charged to
// other like the rest of the benchmark's own code.
func TestProfileOfBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink = spin(time.Now().Add(400 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spin") {
			inSpin += s.ns
		}
	}
	if total < 100e6 || inSpin < total*7/10 {
		t.Fatalf("spin has %d of %d sampled ns, want most of at least 100ms", inSpin, total)
	}
	got, err := layerTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["other"] < inSpin {
		t.Errorf("other = %d ns, want at least spin's %d ns", got["other"], inSpin)
	}
}
