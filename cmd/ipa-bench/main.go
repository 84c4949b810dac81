// ipa-bench regenerates every table and figure of the paper's evaluation
// plus the ablations, printing paper-vs-simulated rows and writing the
// Figure 5 CSV/SVG artifacts. It also emits a JSON metrics baseline
// (default BENCH_10.json) so successive PRs can track the perf trajectory
// against the committed BENCH_1…BENCH_9 baselines. The baseline carries
// an "env" block (Go version, CPU count, GOMAXPROCS) so trajectory
// comparisons are hardware-aware.
//
// Usage:
//
//	ipa-bench [-exp table1|table2|figure5|equations|queue|merge|streams|poll|hierarchy|wire|shard|place|repl|mcore|obs|chaos|relay|all] [-out DIR] [-json FILE] [-tiny] [-cpuprofile FILE] [-memprofile FILE]
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

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/perf"
)

func main() {
	os.Exit(realMain())
}

// realMain exists so the profile-stopping defers run before exit.
func realMain() int {
	exp := flag.String("exp", "all", "experiment to run")
	out := flag.String("out", "bench-out", "artifact output directory")
	jsonPath := flag.String("json", "BENCH_10.json", "metrics baseline file (\"\" disables)")
	tiny := flag.Bool("tiny", false, "shrink experiment sizes (CI smoke under -race)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	// A partial run writes a partial metrics map; never let it silently
	// clobber the committed full baseline unless -json was given
	// explicitly.
	jsonSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "json" {
			jsonSet = true
		}
	})
	if *exp != "all" && !jsonSet {
		*jsonPath = ""
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipa-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ipa-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ipa-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ipa-bench:", err)
			}
		}()
	}
	if err := run(*exp, *out, *jsonPath, *tiny); err != nil {
		fmt.Fprintln(os.Stderr, "ipa-bench:", err)
		return 1
	}
	return 0
}

func run(exp, outDir, jsonPath string, tiny bool) error {
	p := perf.PaperParams()
	w := os.Stdout
	all := exp == "all"
	switch exp {
	case "all", "table1", "table2", "figure5", "equations", "queue", "merge", "streams", "poll", "hierarchy", "wire", "shard", "place", "repl", "mcore", "obs", "chaos", "relay":
	default:
		return fmt.Errorf("unknown experiment %q (want table1|table2|figure5|equations|queue|merge|streams|poll|hierarchy|wire|shard|place|repl|mcore|obs|chaos|relay|all)", exp)
	}
	// metrics accumulates the headline number of every experiment that
	// ran; the baseline file lets future PRs diff perf without re-parsing
	// tables.
	metrics := map[string]float64{}

	if all || exp == "table1" {
		r := perf.Table1(p)
		if err := perf.RenderTable1(w, r); err != nil {
			return err
		}
		fmt.Fprintln(w)
		metrics["table1_local_s"] = float64(r.Local.Total())
		metrics["table1_grid_s"] = float64(r.Grid.Total())
	}
	if all || exp == "table2" {
		if err := perf.RenderTable2(w, perf.Table2(p)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || exp == "equations" {
		f, err := perf.FitEquations(perf.EquationCalibratedParams())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "(equation-calibrated params: reproduces the paper's published fit)")
		if err := perf.RenderEquations(w, f); err != nil {
			return err
		}
		f2, err := perf.FitEquations(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\n(table-calibrated params: the coefficients the paper's own tables imply)")
		if err := perf.RenderEquations(w, f2); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if all || exp == "figure5" {
		r := perf.Figure5(p, nil, nil)
		if err := perf.RenderFigure5(w, r); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		csv, err := os.Create(filepath.Join(outDir, "figure5.csv"))
		if err != nil {
			return err
		}
		if err := r.WriteCSV(csv); err != nil {
			csv.Close()
			return err
		}
		csv.Close()
		svg, err := os.Create(filepath.Join(outDir, "figure5-grid.svg"))
		if err != nil {
			return err
		}
		err = aida.WriteSVGHeatmap(svg, "Figure 5 — simulated Grid time (s)",
			"dataset size (MB)", "compute nodes", r.GridSurface(), 800, 500)
		svg.Close()
		if err != nil {
			return err
		}
		svg2, err := os.Create(filepath.Join(outDir, "figure5-advantage.svg"))
		if err != nil {
			return err
		}
		err = aida.WriteSVGHeatmap(svg2, "Figure 5 — local minus Grid (s; positive = Grid wins)",
			"dataset size (MB)", "compute nodes", r.AdvantageSurface(), 800, 500)
		svg2.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s/figure5.csv, figure5-grid.svg, figure5-advantage.svg\n\n", outDir)
	}
	if all || exp == "queue" {
		r, err := perf.QueueAblation(8, 2*time.Second)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A1 — engine start latency on a full farm (8 nodes)",
			Columns: []string{"Queue setup", "Latency"}}
		t.AddRow("dedicated interactive (preempting)", fmt.Sprintf("%d ms", r.DedicatedMS))
		shared := fmt.Sprintf("%d ms", r.SharedMS)
		if r.SharedTimedOut {
			shared = fmt.Sprintf("> %d ms (starved behind batch backlog)", r.SharedMS)
		}
		t.AddRow("shared batch queue", shared)
		fmt.Fprintln(w, t.String())
		metrics["queue_dedicated_ms"] = float64(r.DedicatedMS)
	}
	if all || exp == "merge" {
		rows, err := perf.MergeAblation(64, 4, 8, 8)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A2 — flat vs hierarchical merging (64 workers x 4 rounds)",
			Columns: []string{"Mode", "Root publishes", "Wall ms"}}
		for _, r := range rows {
			t.AddRow(r.Mode, fmt.Sprintf("%d", r.RootPublishes), fmt.Sprintf("%d", r.WallMS))
			metrics["merge_"+r.Mode+"_wall_ms"] = float64(r.WallMS)
		}
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "streams" {
		rows := perf.StreamAblation(471, []int{1, 2, 4, 8, 16})
		t := &aida.Table{Title: "A3 — parallel GridFTP streams over a window-limited WAN (471 MB)",
			Columns: []string{"Streams", "Seconds", "Speedup"}}
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%d", r.Streams), fmt.Sprintf("%.1f", r.Seconds), fmt.Sprintf("%.2fx", r.Speedup))
		}
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "poll" {
		r, err := perf.PollAblation(20)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A4 — client poll size, 20 histograms, 1 changed",
			Columns: []string{"Strategy", "Bytes"}}
		t.AddRow("full tree", fmt.Sprintf("%d", r.FullBytes))
		t.AddRow("incremental", fmt.Sprintf("%d", r.IncrementalBytes))
		fmt.Fprintln(w, t.String())
		metrics["poll_full_bytes"] = float64(r.FullBytes)
		metrics["poll_incremental_bytes"] = float64(r.IncrementalBytes)
	}
	if all || exp == "hierarchy" {
		r, err := perf.HierarchyAblation(4, 8, 40, 20, 1)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A6 — SubMerger delta forwarding, 4 groups x 8 workers x 40 rounds, 1 of 20 touched",
			Columns: []string{"Upstream B/flush", "Allocs/round", "Wall ms"}}
		t.AddRow(fmt.Sprintf("%d", r.UpstreamBytesPerFlush),
			fmt.Sprintf("%.0f", r.AllocsPerRound), fmt.Sprintf("%d", r.WallMS))
		metrics["hier_delta_flush_bytes_per_flush"] = float64(r.UpstreamBytesPerFlush)
		metrics["hier_delta_flush_allocs_per_round"] = r.AllocsPerRound
		metrics["hier_delta_flush_wall_ms"] = float64(r.WallMS)
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "wire" {
		r, err := perf.WireCompressionAblation(20)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: "A8 — snapshot frame size, 20 sparse histograms",
			Columns: []string{"Frame", "Bytes"}}
		t.AddRow("plain (v1)", fmt.Sprintf("%d", r.PlainBytes))
		t.AddRow("deflate (v2)", fmt.Sprintf("%d", r.FlateBytes))
		fmt.Fprintln(w, t.String())
		metrics["wire_plain_bytes"] = float64(r.PlainBytes)
		metrics["wire_flate_bytes"] = float64(r.FlateBytes)
	}
	if all || exp == "shard" {
		// 1 vs 4 vs 8 manager shards under concurrent sessions; -tiny
		// keeps the CI smoke (run under -race) fast.
		counts, sessions, workers, rounds, objects := []int{1, 4, 8}, 8, 4, 150, 20
		if tiny {
			counts, sessions, workers, rounds, objects = []int{1, 2}, 2, 2, 10, 4
		}
		rows, err := perf.ShardAblation(counts, sessions, workers, rounds, objects)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A9 — sharded merge fabric, %d concurrent sessions x %d workers x %d rounds",
			sessions, workers, rounds),
			Columns: []string{"Shards", "Publishes/s", "Polls/s", "Wall ms"}}
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%d", r.Shards), fmt.Sprintf("%.0f", r.PublishesPerSec),
				fmt.Sprintf("%.0f", r.PollsPerSec), fmt.Sprintf("%d", r.WallMS))
			metrics[fmt.Sprintf("shard_%d_publish_per_s", r.Shards)] = r.PublishesPerSec
			metrics[fmt.Sprintf("shard_%d_poll_per_s", r.Shards)] = r.PollsPerSec
			metrics[fmt.Sprintf("shard_%d_wall_ms", r.Shards)] = float64(r.WallMS)
		}
		fmt.Fprintln(w, t.String())
	}
	if all || exp == "place" {
		// A11a: the RCU placement table under a quiescent-poll storm;
		// -tiny keeps the CI smoke (run under -race) fast.
		shards, sessions, pollers, polls := 4, 8, 4, 2000
		if tiny {
			shards, sessions, pollers, polls = 2, 2, 2, 150
		}
		rr, err := perf.RouteAblation(shards, sessions, pollers, polls)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A11a — RCU owner resolution, %d shards, %d sessions x %d pollers x %d polls",
			shards, sessions, pollers, polls),
			Columns: []string{"Polls/s", "Wall ms"}}
		t.AddRow(fmt.Sprintf("%.0f", rr.PollsPerSec), fmt.Sprintf("%d", rr.WallMS))
		metrics["place_route_rcu_poll_per_s"] = rr.PollsPerSec
		fmt.Fprintln(w, t.String())

		// A11b: load-weighted rebalancing under skewed per-session load.
		rbShards, hot, cold, rounds, skew := 4, 4, 8, 8, 10
		if tiny {
			rbShards, hot, cold, rounds, skew = 2, 2, 3, 4, 6
		}
		brows, err := perf.RebalanceAblation(rbShards, hot, cold, rounds, skew)
		if err != nil {
			return err
		}
		t2 := &aida.Table{Title: fmt.Sprintf("A11b — rebalancing, %d shards, %d hot (x%d load) + %d cold sessions",
			rbShards, hot, skew, cold),
			Columns: []string{"Rebalance", "Moves", "Hot-shard share", "Diverged", "Wall ms"}}
		for _, r := range brows {
			t2.AddRow(r.Mode, fmt.Sprintf("%d", r.Moves), fmt.Sprintf("%.0f%%", 100*r.HotShare),
				fmt.Sprintf("%v", r.Diverged), fmt.Sprintf("%d", r.WallMS))
			metrics["place_rebalance_"+r.Mode+"_moves"] = float64(r.Moves)
			metrics["place_rebalance_"+r.Mode+"_hot_share"] = r.HotShare
			if r.Diverged {
				return fmt.Errorf("rebalance ablation (%s) diverged from the flat reference", r.Mode)
			}
		}
		fmt.Fprintln(w, t2.String())

		// A11c: kill-a-shard fault recovery.
		rcShards, rcSessions, rcRounds := 3, 10, 3
		if tiny {
			rcShards, rcSessions, rcRounds = 2, 4, 2
		}
		rec, err := perf.RecoveryAblation(rcShards, rcSessions, rcRounds)
		if err != nil {
			return err
		}
		t3 := &aida.Table{Title: fmt.Sprintf("A11c — shard kill, %d shards x %d sessions", rcShards, rcSessions),
			Columns: []string{"Killed", "Its sessions", "Probe rounds", "Recovered", "Lost updates"}}
		t3.AddRow(rec.Killed, fmt.Sprintf("%d", rec.KilledSessions), fmt.Sprintf("%d", rec.ProbeRounds),
			fmt.Sprintf("%d/%d", rec.Recovered, rec.Sessions), fmt.Sprintf("%v", rec.Lost))
		fmt.Fprintln(w, t3.String())
		metrics["place_recover_sessions"] = float64(rec.Recovered)
		metrics["place_recover_killed_sessions"] = float64(rec.KilledSessions)
		metrics["place_recover_probe_rounds"] = float64(rec.ProbeRounds)
		if rec.Lost {
			return fmt.Errorf("recovery ablation lost updates (%d/%d sessions recovered)", rec.Recovered, rec.Sessions)
		}
	}
	if all || exp == "repl" {
		// A12: replicated shards — failover with the engines already
		// finished (nothing can re-baseline), replication on vs off.
		rpShards, rpSessions, rpRounds := 4, 16, 32
		if tiny {
			rpShards, rpSessions, rpRounds = 3, 6, 8
		}
		rrows, err := perf.ReplicationAblation(rpShards, rpSessions, rpRounds)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A12 — replicated shard kill after engines finished, %d shards x %d sessions x %d rounds",
			rpShards, rpSessions, rpRounds),
			Columns: []string{"Replication", "Publish/s", "Failover ms", "Promoted", "Recovered", "Lost"}}
		var on, off *perf.ReplicationAblationRow
		for i := range rrows {
			r := &rrows[i]
			t.AddRow(r.Mode, fmt.Sprintf("%.0f", r.PublishPerSec), fmt.Sprintf("%.2f", r.FailoverMS),
				fmt.Sprintf("%d", r.Promoted), fmt.Sprintf("%d/%d", r.Recovered, r.Sessions), fmt.Sprintf("%d", r.Lost))
			metrics["repl_"+r.Mode+"_publish_per_s"] = r.PublishPerSec
			metrics["repl_"+r.Mode+"_recovered"] = float64(r.Recovered)
			metrics["repl_"+r.Mode+"_lost"] = float64(r.Lost)
			if r.Mode == "repl" {
				on = r
				metrics["repl_failover_ms"] = r.FailoverMS
				metrics["repl_promoted"] = float64(r.Promoted)
			} else {
				off = r
			}
		}
		fmt.Fprintln(w, t.String())
		if on.Lost > 0 {
			return fmt.Errorf("replication ablation lost %d sessions with replication on", on.Lost)
		}
		if off.PublishPerSec > 0 {
			overhead := 1 - on.PublishPerSec/off.PublishPerSec
			metrics["repl_publish_overhead_frac"] = overhead
			fmt.Fprintf(w, "replication publish overhead: %.1f%% (async mirror stream)\n\n", 100*overhead)
		}

		// A12b: crash-restart durability — replay the fsync'd session log
		// into a cold manager and compare state byte-for-byte.
		wSessions, wRounds := 8, 32
		if tiny {
			wSessions, wRounds = 3, 8
		}
		wrow, err := perf.WALAblation(wSessions, wRounds)
		if err != nil {
			return err
		}
		t2 := &aida.Table{Title: fmt.Sprintf("A12b — session-log replay, %d sessions x %d rounds", wSessions, wRounds),
			Columns: []string{"Log KiB", "Records replayed", "Replay ms", "State intact"}}
		t2.AddRow(fmt.Sprintf("%.0f", float64(wrow.LogBytes)/1024), fmt.Sprintf("%d", wrow.Replayed),
			fmt.Sprintf("%.2f", wrow.ReplayMS), fmt.Sprintf("%v", wrow.Intact))
		fmt.Fprintln(w, t2.String())
		metrics["repl_wal_replay_ms"] = wrow.ReplayMS
		metrics["repl_wal_replayed"] = float64(wrow.Replayed)
		if !wrow.Intact {
			return fmt.Errorf("session-log replay diverged from the pre-crash state")
		}
	}
	if all || exp == "mcore" {
		// A13 — multicore raw-speed sweep: bulk fills (vs scalar
		// fills), publish+poll over RMI, RMI round trips and pooled frame
		// decodes, per GOMAXPROCS setting. Settings above
		// runtime.NumCPU are capped: an oversubscribed scheduler must
		// not masquerade as scaling.
		procs := []int{1, 2, 4, runtime.NumCPU()}
		fills, sessions, rounds, objects, calls := 1<<20, 8, 120, 16, 2000
		if tiny {
			procs = []int{1, runtime.NumCPU()}
			// Keep 8 sessions even in tiny mode: concurrent producers
			// share the one pipelined RMI connection.
			fills, sessions, rounds, objects, calls = 1<<14, 8, 12, 4, 40
		}
		rows, err := perf.MulticoreSweep(procs, fills, sessions, rounds, objects, calls)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A13 — multicore raw speed (host has %d CPUs)", runtime.NumCPU()),
			Columns: []string{"Procs", "FillN/s", "Fill/s", "Publish+poll ops/s", "RMI calls/s", "Allocs/decode"}}
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%d", r.Procs),
				fmt.Sprintf("%.1fM", r.FillNPerSec/1e6), fmt.Sprintf("%.1fM", r.ScalarPerSec/1e6),
				fmt.Sprintf("%.0f", r.PubPollOpsPerSec),
				fmt.Sprintf("%.0f", r.CallsPerSec), fmt.Sprintf("%.2f", r.AllocsPerDecode))
			key := fmt.Sprintf("mcore_p%d", r.Procs)
			metrics[key+"_filln_per_s"] = r.FillNPerSec
			metrics[key+"_fill_per_s"] = r.ScalarPerSec
			metrics[key+"_pubpoll_ops_per_s"] = r.PubPollOpsPerSec
			metrics[key+"_rmi_v2_calls_per_s"] = r.CallsPerSec
			metrics[key+"_pooled_allocs_per_decode"] = r.AllocsPerDecode
		}
		fmt.Fprintln(w, t.String())
		if n := len(rows); n > 1 && rows[0].PubPollOpsPerSec > 0 {
			scale := rows[n-1].PubPollOpsPerSec / rows[0].PubPollOpsPerSec
			metrics["mcore_pubpoll_scale"] = scale
			fmt.Fprintf(w, "publish+poll scaling %d→%d procs: %.2fx\n\n", rows[0].Procs, rows[n-1].Procs, scale)
		} else if n == 1 {
			fmt.Fprintf(w, "single-CPU host: no scaling row possible (env block records num_cpu=%d)\n\n", runtime.NumCPU())
		}
	}
	if all || exp == "obs" {
		// A14 — telemetry overhead: the instrumented publish+poll fabric
		// vs the obs.Disabled ablation, interleaved reps, per-mode
		// medians. The acceptance bar is overhead within the noise of the
		// loopback round trip.
		// Rounds are sized so each measured window is hundreds of ms:
		// shorter windows swing ±15% on a shared host, which would
		// drown the few-percent effect this ablation is after.
		oSessions, oRounds, oObjects := 8, 400, 16
		if tiny {
			oSessions, oRounds, oObjects = 4, 12, 4
		}
		orow, err := perf.ObsOverheadAblation(oSessions, oRounds, oObjects)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A14 — telemetry overhead, %d sessions x %d rounds x %d objects (medians of %d interleaved reps)",
			oSessions, oRounds, oObjects, perf.ObsReps),
			Columns: []string{"Mode", "Ops/s"}}
		t.AddRow("instrumented", fmt.Sprintf("%.0f", orow.InstrumentedOpsPerSec))
		t.AddRow("obs.Disabled", fmt.Sprintf("%.0f", orow.DisabledOpsPerSec))
		fmt.Fprintln(w, t.String())
		fmt.Fprintf(w, "telemetry overhead: %.1f%% (negative = noise in the instrumented run's favor)\n\n", 100*orow.OverheadFrac)
		metrics["obs_instrumented_ops_per_s"] = orow.InstrumentedOpsPerSec
		metrics["obs_disabled_ops_per_s"] = orow.DisabledOpsPerSec
		metrics["obs_overhead_frac"] = orow.OverheadFrac
	}
	if all || exp == "chaos" {
		// A15 — chaos schedule over the K-replica chain: seeded multi-kill
		// (the second victim dies mid-failover) with a flaky replication
		// plane, zero-loss assertion against the flat reference, and a
		// silent-drift replica the anti-entropy loop must repair within
		// two sweeps. The seed is fixed so CI reruns the same schedule.
		cShards, cSessions, cRounds, cKills, cDepth := 5, 12, 24, 2, 2
		if tiny {
			cShards, cSessions, cRounds, cKills, cDepth = 4, 3, 6, 2, 2
		}
		const chaosSeed = 2006
		cres, err := perf.ChaosAblation(cShards, cSessions, cRounds, cKills, cDepth, chaosSeed)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A15 — chain-depth publish overhead, %d shards x %d sessions x %d rounds",
			cShards, cSessions, cRounds),
			Columns: []string{"Chain depth", "Publish/s", "vs K=0"}}
		base := cres.Overhead[0].PublishPerSec
		for _, row := range cres.Overhead {
			rel := "—"
			if row.Depth > 0 && base > 0 {
				rel = fmt.Sprintf("%.1f%%", 100*(1-row.PublishPerSec/base))
			}
			t.AddRow(fmt.Sprintf("K=%d", row.Depth), fmt.Sprintf("%.0f", row.PublishPerSec), rel)
			metrics[fmt.Sprintf("chaos_k%d_publish_per_s", row.Depth)] = row.PublishPerSec
		}
		fmt.Fprintln(w, t.String())
		t2 := &aida.Table{Title: fmt.Sprintf("A15 — seeded kill schedule (seed %d), K=%d chain, %d kills",
			chaosSeed, cDepth, cKills),
			Columns: []string{"Victim", "Owned sessions", "Death"}}
		for _, v := range cres.Victims {
			death := "killed outright"
			if v.MidFailover {
				death = fmt.Sprintf("armed: dies %d calls into the failover", v.Fuse)
			}
			t2.AddRow(v.Shard, fmt.Sprintf("%d", v.OwnedSessions), death)
		}
		fmt.Fprintln(w, t2.String())
		t3 := &aida.Table{Title: "A15 — survival",
			Columns: []string{"Probe rounds", "Failover ms", "Promoted", "Recovered", "Lost", "Drift repaired (sweeps)"}}
		drift := "no chain to doctor"
		if cres.DriftHop != "" {
			drift = fmt.Sprintf("%v (%d)", cres.DriftRepaired, cres.DriftRounds)
		}
		t3.AddRow(fmt.Sprintf("%d", cres.ProbeRounds), fmt.Sprintf("%.2f", cres.FailoverMS),
			fmt.Sprintf("%d", cres.Promoted), fmt.Sprintf("%d/%d", cres.Recovered, cSessions),
			fmt.Sprintf("%d", cres.Lost), drift)
		fmt.Fprintln(w, t3.String())
		metrics["chaos_probe_rounds"] = float64(cres.ProbeRounds)
		metrics["chaos_failover_ms"] = cres.FailoverMS
		metrics["chaos_promoted"] = float64(cres.Promoted)
		metrics["chaos_recovered"] = float64(cres.Recovered)
		metrics["chaos_lost"] = float64(cres.Lost)
		metrics["chaos_drift_rounds"] = float64(cres.DriftRounds)
		if cres.Lost > 0 {
			return fmt.Errorf("chaos schedule lost %d of %d sessions (%d shards killed, chain depth %d)",
				cres.Lost, cSessions, cKills, cDepth)
		}
		if cres.DriftHop != "" && !cres.DriftRepaired {
			return fmt.Errorf("anti-entropy failed to repair the injected drift at %s within %d sweeps",
				cres.DriftHop, cres.DriftRounds)
		}
	}
	if all || exp == "relay" {
		// A16 — the read fan-out tier: N downstream pollers per session
		// served through a delta-subscribing relay mirror vs polling the
		// owning shards directly. The relay must collapse the N poller
		// streams into one upstream subscription per session (≥10× fewer
		// upstream shard polls at N=64) while re-serving byte-identical
		// frames; "direct" is the DisableRelay ablation baseline.
		ryShards, rySessions, ryRounds, ryPollers := 4, 8, 16, 64
		if tiny {
			ryShards, rySessions, ryRounds, ryPollers = 3, 3, 4, 16
		}
		ryRows, err := perf.RelayAblation(ryShards, rySessions, ryRounds, ryPollers)
		if err != nil {
			return err
		}
		t := &aida.Table{Title: fmt.Sprintf("A16 — read fan-out, %d shards x %d sessions x %d rounds, N=%d pollers",
			ryShards, rySessions, ryRounds, ryPollers),
			Columns: []string{"Reads via", "Upstream polls", "Downstream polls", "Fan-out", "Serve polls/s", "Identical"}}
		var direct, relayRow *perf.RelayAblationRow
		for i := range ryRows {
			r := &ryRows[i]
			t.AddRow(r.Mode, fmt.Sprintf("%d", r.UpstreamPolls), fmt.Sprintf("%d", r.DownstreamPolls),
				fmt.Sprintf("%.1fx", r.FanOut), fmt.Sprintf("%.0f", r.PollPerSec), fmt.Sprintf("%v", r.Identical))
			metrics["relay_"+r.Mode+"_upstream_polls"] = float64(r.UpstreamPolls)
			metrics["relay_"+r.Mode+"_fan_out"] = r.FanOut
			metrics["relay_"+r.Mode+"_poll_per_s"] = r.PollPerSec
			if r.Mode == "relay" {
				relayRow = r
			} else {
				direct = r
			}
			if !r.Identical {
				return fmt.Errorf("relay ablation: %s-mode served state diverged from the reference", r.Mode)
			}
		}
		fmt.Fprintln(w, t.String())
		if relayRow.UpstreamPolls > 0 {
			reduction := float64(direct.UpstreamPolls) / float64(relayRow.UpstreamPolls)
			metrics["relay_upstream_reduction_x"] = reduction
			fmt.Fprintf(w, "relay tier: %.1fx fewer upstream shard polls for the same %d downstream reads\n\n",
				reduction, relayRow.DownstreamPolls)
			// The tentpole claim at full size; the tiny smoke keeps the
			// proportional bar so CI still proves the collapse.
			floor := 10.0
			if tiny {
				floor = float64(ryPollers) / 4
			}
			if reduction < floor {
				return fmt.Errorf("relay ablation: upstream polls reduced only %.1fx (want ≥%.0fx at N=%d pollers)",
					reduction, floor, ryPollers)
			}
		}
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(struct {
			Env     map[string]any     `json:"env"`
			Metrics map[string]float64 `json:"metrics"`
		}{
			Env: map[string]any{
				"go_version": runtime.Version(),
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
				"num_cpu":    runtime.NumCPU(),
				"gomaxprocs": runtime.GOMAXPROCS(0),
			},
			Metrics: metrics,
		}, "", "  ")
		if err != nil {
			return err
		}
		if dir := filepath.Dir(jsonPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d metrics)\n", jsonPath, len(metrics))
	}
	return nil
}
