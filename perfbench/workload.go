package main

import (
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/events"
)

// engines is the per-session engine count (GridOptions.Nodes). It is
// fixed rather than taken from the host so figures from different
// machines describe the same session shape.
const engines = 2

// scanScript is the quickstart's scripted analysis: a multiplicity and a
// per-particle energy sum, so every particle goes through the script
// event binding.
const scanScript = `
mult = tree.h1d("/demo", "multiplicity", "Particles per event", 40, 0, 160);
energy = tree.h1d("/demo", "energy", "Total visible energy [GeV]", 50, 0, 800);
function process(ev) {
	mult.fill(ev.n);
	tot = 0;
	for (p : ev.particles) tot += p.e;
	energy.fill(tot);
}
`

// tuneCuts are the jet-energy thresholds (GeV) a tune-loop cycle picks
// from: the §3.6 "tighten a cut, rewind, re-run" loop of examples/higgs.
var tuneCuts = []string{"10", "15", "20", "25", "30", "35", "40", "50"}

// workload is one benchmark input set. Why each exists, and which layer
// it is meant to stress, is recorded in README.md and BENCHMARK.json.
type workload struct {
	name string
	// events is the generated dataset size.
	events int
	// shards is GridOptions.Shards (0 = the unsharded fabric).
	shards int
	// script selects the scripted quickstart analysis; otherwise the
	// native Higgs analysis runs.
	script bool
	// cycles > 0 makes a unit a tune cycle: each staged session runs
	// this many LoadNative → Rewind → Run cycles. 0 makes a unit one
	// whole session (open, stage, load, run, close).
	cycles int
}

var workloads = []workload{
	{name: "script-scan", events: 20000, script: true},
	{name: "native-stage", events: 200000},
	{name: "tune-loop", events: 4000, shards: 2, cycles: 25},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bundle is the analysis a workload ships, with cut as the Higgs minE
// threshold ("" for the workload's fixed analysis).
func (w workload) bundle(cut string) codeloader.Bundle {
	if w.script {
		return codeloader.Bundle{Name: "scan", Language: codeloader.LangScript,
			Source: scanScript, Decoder: events.EventDecoderName}
	}
	if cut == "" {
		cut = "20"
	}
	return codeloader.Bundle{Name: "higgs", Language: codeloader.LangNative,
		Analysis: events.HiggsAnalysisName,
		Params:   map[string]string{"minE": cut, "bins": "125"}}
}
