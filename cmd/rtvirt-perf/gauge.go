package main

import (
	_ "embed"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"time"
)

// The host this benchmark was made on is a shared 2-vCPU guest whose speed
// drifts by up to half over minutes, and in busy spells by a factor of two,
// as other tenants come and go: the same run takes 2.2 s in a quiet minute
// and 4.5 s in a busy one. The drift moves all four workloads together, so
// it cannot be averaged out within a 30-second measurement. The benchmark
// therefore times a gauge before and after every run, and reports host
// times scaled to the speed the gauge shows: reference seconds, the time the
// run would have taken had the gauge run in gaugeRefS.
//
// The gauge parses a Go source file with go/parser: fixed work done by the
// standard library alone, so that no change to the program can speed it up
// or slow it down. Like the simulator it is pointer-heavy, allocates and has
// a large code footprint, and in a busy spell it slowed by the same factor
// as the four workloads (1.96 against 1.91-2.03), where a kernel of heap,
// table and map work slowed by only 1.62.

// gaugeRefS is about the gauge's time in a quiet minute on the host above.
const gaugeRefS = 0.2

// gaugeParses is the number of parses one gauge measurement makes.
const gaugeParses = 200

// gaugeSource is the file the gauge parses: a file of this benchmark, so
// that it changes only with the benchmark.
//
//go:embed worlds.go
var gaugeSource []byte

// gaugeTime parses gaugeSource gaugeParses times, walking each syntax tree,
// and returns the host seconds it took. Each measurement starts on a
// collected heap, so it does the same collection work every time.
func gaugeTime() float64 {
	runtime.GC()
	t := time.Now()
	for i := 0; i < gaugeParses; i++ {
		f, err := parser.ParseFile(token.NewFileSet(), "worlds.go", gaugeSource, parser.ParseComments)
		if err != nil {
			panic("rtvirt-perf: gauge source: " + err.Error())
		}
		ast.Inspect(f, func(ast.Node) bool { return true })
	}
	return time.Since(t).Seconds()
}

// gaugedSpawner runs runs in child processes and sets each run's Speed
// from the gauge timed just before and just after it.
type gaugedSpawner struct{ last float64 }

// newGaugedSpawner also gives this process the children's one P, so that
// the gauge's garbage collection runs inline, as the children's does.
func newGaugedSpawner() *gaugedSpawner {
	runtime.GOMAXPROCS(childProcs)
	gaugeTime() // warm up the parser
	return &gaugedSpawner{gaugeTime()}
}

func (s *gaugedSpawner) spawn(w benchWorkload, seed uint64, traced bool, prof profiles) runResult {
	r := spawn(w, seed, traced, prof)
	next := gaugeTime()
	r.Speed = gaugeRefS / ((s.last + next) / 2)
	s.last = next
	return r
}
