package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names a reported metric. The end-to-end and per-layer lists
// must match BENCHMARK.json (the smoke test checks this).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"open_ms_p50", "ms"},
	{"stage_ms_p50", "ms"},
	{"complete_ms_p50", "ms"},
	{"cycle_ms_p50", "ms"},
	{"session_ms_p50", "ms"},
	{"events_per_s", "1/s"},
	{"cpu_us_per_event", "us"},
	{"mem_mb_p50", "MB"},
}

var perLayer = append([]metricDef{
	{"gsi.proxy_ms", "ms"},
	{"session.create_ms", "ms"},
	{"catalog.query_ms", "ms"},
	{"codeloader.load_ms", "ms"},
	{"session.control_ms", "ms"},
	{"core.poll_us_p50", "us"},
	{"core.polls_per_run", "count"},
	{"core.changed_poll_ratio", "ratio"},
	{"core.early_done_polls", "count"},
	{"core.ttfr_ms_p50", "ms"},
	{"session.move_whole_ms", "ms"},
	{"splitter.split_ms", "ms"},
	{"session.move_parts_ms", "ms"},
	{"engine.events_per_s_min", "1/s"},
	{"engine.events_per_s_max", "1/s"},
	{"engine.finish_spread_ms", "ms"},
	{"engine.speedup_vs_serial", "ratio"},
	{"dataset.read_ns_per_event", "ns"},
	{"events.decode_ns_per_event", "ns"},
	{"script.process_ns_per_event", "ns"},
	{"script.allocs_per_event", "count"},
	{"analysis.process_ns_per_event", "ns"},
	{"analysis.allocs_per_event", "count"},
	{"splitter.split_MBps", "MB/s"},
	{"storage.put_MBps", "MB/s"},
	{"merge.publishes_per_run", "count"},
	{"merge.fast_poll_ratio", "ratio"},
	{"merge.frame_cache_hit_ratio", "ratio"},
	{"merge.publish_us_p50", "us"},
	{"rmi.call_us_p50", "us"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	var defs []metricDef
	for _, k := range cpuShareKeys() {
		defs = append(defs, metricDef{"cpu_share." + k, "ratio"})
	}
	return defs
}

// value is one reported metric; n > 0 marks a percentile or median over
// n samples.
type value struct {
	v float64
	n int
}

// result is one benchmark run.
type result struct {
	workload          string
	seed              int64
	traced            bool
	attempted, failed int
	errs              []string
	metrics           map[string]value
	// extra are figures printed for the reader but not part of the
	// contract: tail percentiles, failure fraction, sample counts.
	extra map[string]value
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

func (r *result) count(ps *phaseStats) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	r.errs = append(r.errs, ps.errs...)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// e2e holds the end-to-end figures of one phase.
type e2e struct {
	open, stage, session, ttfr, complete, cycle, mem []float64
	events                                           int64
	run                                              time.Duration
	cpu                                              time.Duration
}

func endToEndOf(ps *phaseStats) e2e {
	var e e2e
	for _, s := range ps.sessions {
		e.open = append(e.open, ms(s.open))
		e.stage = append(e.stage, ms(s.stage))
		e.session = append(e.session, ms(s.session))
	}
	for _, rt := range ps.runs {
		e.ttfr = append(e.ttfr, ms(rt.ttfr))
		e.complete = append(e.complete, ms(rt.complete))
		e.cycle = append(e.cycle, ms(rt.cycle))
		e.mem = append(e.mem, rt.memMB)
		e.events += rt.events
		e.run += rt.complete
	}
	e.cpu = ps.cpu
	return e
}

// setEndToEnd reports the end-to-end metrics of a phase.
func (r *result) setEndToEnd(setup []time.Duration, ps *phaseStats) {
	e := endToEndOf(ps)
	r.set("setup_s", quantile(durSeconds(setup), 0.5), len(setup))
	r.set("open_ms_p50", quantile(e.open, 0.5), len(e.open))
	r.set("stage_ms_p50", quantile(e.stage, 0.5), len(e.stage))
	r.extra["ttfr_ms_p50"] = value{quantile(e.ttfr, 0.5), len(e.ttfr)}
	r.set("complete_ms_p50", quantile(e.complete, 0.5), len(e.complete))
	r.set("cycle_ms_p50", quantile(e.cycle, 0.5), len(e.cycle))
	r.set("session_ms_p50", quantile(e.session, 0.5), len(e.session))
	r.set("events_per_s", ratio(float64(e.events), e.run.Seconds()), 0)
	r.set("cpu_us_per_event", ratio(float64(e.cpu/time.Microsecond), float64(e.events)), 0)
	r.set("mem_mb_p50", quantile(e.mem, 0.5), len(e.mem))
	r.extra["peak_rss_mb"] = value{peakRSSMB(), 0}
	// p90 only where at least 100 samples leave ten beyond it.
	if len(e.ttfr) >= 100 {
		r.extra["ttfr_ms_p90"] = value{quantile(e.ttfr, 0.9), len(e.ttfr)}
		r.extra["cycle_ms_p90"] = value{quantile(e.cycle, 0.9), len(e.cycle)}
	}
	r.extra["failed_frac"] = value{ratio(float64(ps.failed), float64(ps.attempted)), 0}
	r.extra["core.early_done_polls"] = value{float64(earlyDone(ps)), 0}
}

// earlyDone counts the polls of the given phases where the naive
// EventsDone == EventsTotal check passed before every engine was done.
func earlyDone(phases ...*phaseStats) int {
	n := 0
	for _, ps := range phases {
		for _, rt := range ps.runs {
			n += rt.early
		}
	}
	return n
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// setTraced reports the client-call span metrics of the traced phase,
// its coverage, and its overhead against the untraced phase.
func (r *result) setTraced(tr *tracer, traced, untraced *phaseStats) {
	for _, s := range []struct{ metric, span string }{
		{"gsi.proxy_ms", "gsi.proxy"},
		{"session.create_ms", "session.create"},
		{"catalog.query_ms", "catalog.query"},
		{"codeloader.load_ms", "codeloader.load"},
		{"session.control_ms", "session.control"},
	} {
		d := tr.durations(s.span)
		r.set(s.metric, quantile(durMS(d), 0.5), len(d))
	}
	lat := tr.durations("core.poll")
	r.set("core.poll_us_p50", 1000*quantile(durMS(lat), 0.5), len(lat))
	var polls, changed int
	var wall time.Duration
	for _, rt := range traced.runs {
		polls += rt.polls
		changed += rt.changed
	}
	for _, s := range traced.sessions {
		wall += s.session
	}
	r.set("core.polls_per_run", ratio(float64(polls), float64(len(traced.runs))), 0)
	r.set("core.changed_poll_ratio", ratio(float64(changed), float64(polls)), 0)
	// Sessions run back to back, so their top-level spans never overlap;
	// close falls outside the open→complete wall time.
	r.set("trace.coverage_frac", ratio(float64(tr.topLevel("session.close")), float64(wall)), 0)
	on := quantile(endToEndOf(traced).session, 0.5)
	off := quantile(endToEndOf(untraced).session, 0.5)
	r.set("trace.overhead_frac", ratio(on-off, off), 0)
	r.extra["trace.session_ms_p50_traced"] = value{on, len(traced.sessions)}
	r.extra["trace.session_ms_p50_untraced"] = value{off, len(untraced.sessions)}

	var whole, split, parts []float64
	for _, s := range traced.sessions {
		whole = append(whole, float64(s.staging.MoveWhole))
		split = append(split, float64(s.staging.Split))
		parts = append(parts, float64(s.staging.MoveParts))
	}
	r.set("session.move_whole_ms", quantile(whole, 0.5), len(whole))
	r.set("splitter.split_ms", quantile(split, 0.5), len(split))
	r.set("session.move_parts_ms", quantile(parts, 0.5), len(parts))

	// Per-engine rates and the straggler gap, as medians over runs.
	var lo, hi, spread []float64
	for _, rt := range traced.runs {
		if len(rt.finish) == 0 {
			continue
		}
		per := float64(rt.events) / float64(len(rt.finish))
		first, last := rt.finish[0], rt.finish[0]
		for _, d := range rt.finish {
			first, last = min(first, d), max(last, d)
		}
		hi = append(hi, per/first.Seconds())
		lo = append(lo, per/last.Seconds())
		spread = append(spread, ms(last-first))
	}
	r.set("engine.events_per_s_min", quantile(lo, 0.5), len(lo))
	r.set("engine.events_per_s_max", quantile(hi, 0.5), len(hi))
	r.set("engine.finish_spread_ms", quantile(spread, 0.5), len(spread))
}

// setMerge reports the merge and rmi counters over the traced phase.
func (r *result) setMerge(d exposition, runs int) {
	r.set("merge.publishes_per_run", ratio(d.sum("ipa_merge_publishes_total", ""), float64(runs)), 0)
	r.set("merge.fast_poll_ratio", ratio(d.sum("ipa_merge_fast_polls_total", ""), d.sum("ipa_merge_polls_total", "")), 0)
	r.set("merge.frame_cache_hit_ratio", ratio(d.sum("ipa_merge_frame_cache_total", `result="hit"`),
		d.sum("ipa_merge_frame_cache_total", "")), 0)
	r.set("merge.publish_us_p50", 1e6*d.quantile("ipa_merge_publish_seconds", 0.5), 0)
	r.set("rmi.call_us_p50", 1e6*d.quantile("ipa_rmi_client_call_seconds", 0.5), 0)
}

// print writes every metric by name with its unit and sample count.
func (r *result) print(w io.Writer, env map[string]any) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  attempted %d  failed %d  env %v\n",
		r.workload, r.seed, r.traced, r.attempted, r.failed, env)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	line := func(name string, v value) {
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("(n=%d)", v.n)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", name, v.v, units[name], n)
	}
	for _, d := range r.defs() {
		if v, ok := r.metrics[d.name]; ok {
			line(d.name, v)
		}
	}
	var extras []string
	for k := range r.extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		line(k, r.extra[k])
	}
}

// defs lists the metrics this run's mode reports.
func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// missing lists contract metrics the run did not produce.
func (r *result) missing() []string {
	var out []string
	for _, d := range r.defs() {
		if _, ok := r.metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
