// Command perfbench measures interactive analysis sessions end to end.
//
// It stands up an in-process core.LocalGrid (2 engines), publishes a
// dataset generated from -seed, and drives complete sessions through the
// public core.Client API as one closed-loop user polling every 2 ms:
// open, catalog query, attach (stage), load code, run, poll until every
// engine is done, close. Every run's merged result must equal a serial
// in-process reference. The last line of standard output is one JSON
// object: with -trace 0 the end-to-end metrics, with -trace 1 the
// per-layer metrics of a separate traced run. README.md lists the
// workloads and metrics.
//
//	go run . -workload script-scan -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: script-scan, native-stage or tune-loop")
	seed := flag.Int64("seed", 1, "seed for the dataset and the tune-loop cut sequence")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	out := flag.String("out", ".bench_build/perfbench", "directory for grid data (removed after the run), spans and run records")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stderr, env())
	if miss := res.missing(); len(miss) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics not produced:", miss)
		os.Exit(1)
	}
	if err := res.record(*out, env()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.contract())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func env() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// measure runs one workload: setup, one untimed warm-up session, then
// either one untraced phase of d (end-to-end metrics) or, traced, three
// phases of d/3 — untraced, span-traced, CPU-profiled — followed by the
// kernel replays.
func measure(w workload, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	b, err := newBench(w, seed, root)
	if err != nil {
		return nil, err
	}
	defer b.grid.Close()

	res := &result{workload: w.name, seed: seed, traced: traced,
		metrics: map[string]value{}, extra: map[string]value{}}
	warm := &phaseStats{}
	b.session(warm, nil)
	res.count(warm)
	if !traced {
		ps := b.phase(d, nil)
		res.count(ps)
		res.setEndToEnd(b.setup, ps)
		return res, nil
	}

	plain := b.phase(d/3, nil)
	res.count(plain)
	tr := newTracer()
	before := readExposition()
	spans := b.phase(d/3, tr)
	res.count(spans)
	res.setMerge(readExposition().since(before), len(spans.runs))
	res.setTraced(tr, spans, plain)
	if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}

	profPath := filepath.Join(root, "cpu.prof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	profiled := b.phase(d/3, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	res.count(profiled)
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, k := range cpuShareKeys() {
		res.set("cpu_share."+k, shares[k], 0)
	}
	res.set("core.early_done_polls", float64(earlyDone(plain, spans, profiled)), 0)

	e := endToEndOf(plain)
	res.set("core.ttfr_ms_p50", quantile(e.ttfr, 0.5), len(e.ttfr))
	var serial time.Duration
	for _, rt := range plain.runs {
		serial += rt.serial
	}
	res.set("engine.speedup_vs_serial", ratio(ms(serial)/float64(len(plain.runs)), quantile(e.complete, 0.5)), len(e.complete))
	kernels, err := replays(b.dsPath, filepath.Join(root, "replay"))
	if err != nil {
		return nil, err
	}
	for k, v := range kernels {
		res.set(k, v, 0)
	}
	return res, nil
}

// contract is the benchmark's result line.
func (r *result) contract() map[string]any {
	m := map[string]any{}
	for _, d := range r.defs() {
		m[d.name] = map[string]any{"value": r.metrics[d.name].v, "unit": d.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// record writes the run with its environment, seed, sample counts and
// the figures outside the contract to <out>/run-<workload>-seed<n>-trace<t>.json.
func (r *result) record(out string, env map[string]any) error {
	all := map[string]any{}
	for k, v := range r.metrics {
		all[k] = map[string]any{"value": v.v, "n": v.n}
	}
	for k, v := range r.extra {
		all[k] = map[string]any{"value": v.v, "n": v.n}
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": r.traced, "env": env,
		"attempted": r.attempted, "failed": r.failed, "failures": r.errs, "metrics": all,
	}, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(out, fmt.Sprintf("run-%s-seed%d-trace%d.json", r.workload, r.seed, trace)), data, 0o644)
}
