package main

import (
	_ "embed"
	"encoding/json"
)

// goldenJSON holds the seed-1 digests of every world. TestGoldens
// regenerates it with -update.
//
//go:embed testdata/golden-seed1.json
var goldenJSON []byte

// goldenFile is the layout of testdata/golden-seed1.json.
type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
	// Cluster64 records the seed-1 cluster's counts, checked against
	// BENCH_7's when the golden was made.
	Cluster64 clusterCounts `json:"cluster64"`
}

type clusterCounts struct {
	Events     uint64 `json:"events"`
	Requests   uint64 `json:"requests"`
	Windows    uint64 `json:"windows"`
	Migrations int    `json:"migrations"`
}

var goldens = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("rtvirt-perf: testdata/golden-seed1.json: " + err.Error())
	}
	return g
}()

// goldenDigest is the digest every run of w at seed must produce, or ""
// when no golden covers the seed.
func goldenDigest(w benchWorkload, seed uint64) string {
	if seed != goldens.Seed {
		return ""
	}
	return goldens.Digests[w.world]
}
