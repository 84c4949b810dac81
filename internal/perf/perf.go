// Package perf regenerates the paper's evaluation (§4) with a calibrated
// discrete-event simulation of the 2006 test environment: the client's
// home WAN, SLAC's site WAN, the shared-disk splitter, the site LAN to 16
// worker nodes, and the 866 MHz engines — none of which exist on a laptop.
//
// Every constant derives from the paper's own measurements (see Params).
// The experiments reproduce Table 1 (local vs Grid), Table 2 (staging and
// analysis vs node count), Figure 5 (time surfaces over dataset size ×
// nodes), and the §4 fitted equations, plus the framework's ablation
// experiments. The table reports print paper and simulated values side by
// side.
package perf

import (
	"fmt"

	"github.com/ipa-grid/ipa/internal/des"
	"github.com/ipa-grid/ipa/internal/netsim"
)

// Params are the calibrated physical constants of the simulated site.
type Params struct {
	// ClientWANMBps is the scientist's home-institution WAN bandwidth:
	// Table 1 downloads 471 MB in 32 min → 0.245 MB/s.
	ClientWANMBps float64
	// SiteWANMBps is the Grid site's uplink used when the manager pulls
	// the whole dataset: Table 2's constant 63 s for 471 MB → 7.48 MB/s.
	SiteWANMBps float64
	// SplitMBps is the splitter's sequential scan rate: 471 MB in
	// ~120 s → 3.93 MB/s.
	SplitMBps float64
	// SplitPartOverheadS is the extra I/O cost per produced part file
	// ("only has a very small input/output overhead for the number of
	// split files").
	SplitPartOverheadS float64
	// LANMBps is one worker's LAN link: fit of the move-parts column,
	// T ≈ XferInitS + (X/N)/LANMBps → 8.03 MB/s.
	LANMBps float64
	// XferInitS is the fixed transfer-initiation cost of the parts phase
	// (GridFTP session setup + shared-disk read-back before streaming).
	XferInitS float64
	// CodeStageS stages the 15 kB analysis bundle: Table 1 says 7 s,
	// dominated by control-channel round trips, not bandwidth.
	CodeStageS float64
	// EngineMBps is one 866 MHz worker's analysis rate: Table 2's
	// single-node 471 MB in 330 s → 1.427 MB/s.
	EngineMBps float64
	// LocalMBps is the scientist's 1.7 GHz desktop rate: Table 1's
	// 13 min for 471 MB → 0.604 MB/s. (The paper notes the desktop is
	// the faster CPU; its slower *effective* rate in Table 1 reflects
	// single-threaded I/O+analysis on a workstation disk.)
	LocalMBps float64
	// SerialFrac is the non-parallelizable fraction of the grid
	// analysis (event-loop startup, snapshot merging, straggler tail),
	// fit from Table 2's endpoints: 330 s @ 1 node, 78 s @ 16 → 0.186.
	SerialFrac float64
	// SourceUplinkMBps caps the shared disk's aggregate outbound rate
	// during the parts phase (high enough not to bind at N ≤ 16).
	SourceUplinkMBps float64
}

// PaperParams returns the constants calibrated to the paper's §4 numbers.
func PaperParams() Params {
	return Params{
		ClientWANMBps:      471.0 / (32 * 60), // 0.245
		SiteWANMBps:        471.0 / 63,        // 7.48
		SplitMBps:          471.0 / 120,       // 3.93
		SplitPartOverheadS: 0.25,
		LANMBps:            8.03,
		XferInitS:          46.3,
		CodeStageS:         7.0,
		EngineMBps:         471.0 / 330, // 1.427
		LocalMBps:          471.0 / 780, // 0.604
		SerialFrac:         0.186,
		SourceUplinkMBps:   1000,
	}
}

// EquationCalibratedParams returns constants tuned so the DES reproduces
// the paper's §4 fitted equations (T_local = 11.5·X and T_grid = 0.38·X +
// 53 + (62 + 5.3·X)/N) rather than the raw tables. The paper's equations
// and tables disagree with each other (the 5.3 s/MB analysis coefficient
// vs Table 2's measured 0.7 s/MB; the 6.2 s/MB WAN coefficient vs
// Table 1's 4.1). Figure 5 plots the equations, so
// reproducing it exactly needs this calibration. The LAN rate of 7.6 MB/s
// makes the parts term equal 62/N at the paper's 471 MB operating point.
func EquationCalibratedParams() Params {
	return Params{
		ClientWANMBps:      1 / 6.2,  // the equations' 6.2·X WAN term
		SiteWANMBps:        1 / 0.13, // 0.13·X
		SplitMBps:          1 / 0.25, // 0.25·X
		SplitPartOverheadS: 0,
		LANMBps:            471.0 / 62, // 62/N at X = 471
		XferInitS:          46,
		CodeStageS:         7,
		EngineMBps:         1 / 5.3, // the equations' 5.3·X/N
		LocalMBps:          1 / 5.3, // local analysis term of 11.5 = 6.2 + 5.3
		SerialFrac:         0,
		SourceUplinkMBps:   100000,
	}
}

// GridRun is the simulated timeline of one interactive Grid session
// staging + analyzing a dataset (the Table 1/2 phases).
type GridRun struct {
	SizeMB    float64
	Nodes     int
	MoveWhole des.Time
	Split     des.Time
	MoveParts des.Time
	StageCode des.Time
	Analysis  des.Time
}

// StageTotal sums the dataset staging phases (Table 1's "Stage Dataset").
func (g GridRun) StageTotal() des.Time { return g.MoveWhole + g.Split + g.MoveParts }

// Total is the whole wall-clock pipeline.
func (g GridRun) Total() des.Time { return g.StageTotal() + g.StageCode + g.Analysis }

// LocalRun is the desktop baseline of Table 1.
type LocalRun struct {
	SizeMB     float64
	GetDataset des.Time
	Analysis   des.Time
}

// Total is download + single-CPU analysis.
func (l LocalRun) Total() des.Time { return l.GetDataset + l.Analysis }

// SimulateGrid runs the full staged pipeline on the DES: WAN fetch flow,
// splitter scan, N parallel LAN flows (max-min shared at the source
// uplink), code staging, and the Amdahl-model engine phase.
func SimulateGrid(p Params, sizeMB float64, nodes int) GridRun {
	if nodes <= 0 || sizeMB < 0 {
		panic(fmt.Sprintf("perf: bad grid run size=%v nodes=%d", sizeMB, nodes))
	}
	k := des.New()
	net := netsim.New(k)
	run := GridRun{SizeMB: sizeMB, Nodes: nodes}

	wan := net.AddLink("site-wan", p.SiteWANMBps)
	uplink := net.AddLink("shared-disk-uplink", p.SourceUplinkMBps)
	workers := make([]*netsim.Link, nodes)
	for i := range workers {
		workers[i] = net.AddLink(fmt.Sprintf("lan-node%02d", i), p.LANMBps)
	}

	var tWholeDone, tSplitDone, tPartsDone des.Time
	// Phase 1: move the whole dataset over the site WAN.
	net.StartFlow(sizeMB, []*netsim.Link{wan}, netsim.FlowOpts{Label: "move-whole"}, func(f *netsim.Flow) {
		tWholeDone = k.Now()
		// Phase 2: the splitter's sequential scan + per-part overhead.
		splitDur := des.Time(sizeMB/p.SplitMBps + p.SplitPartOverheadS*float64(nodes))
		k.After(splitDur, func() {
			tSplitDone = k.Now()
			// Phase 3: N part transfers in parallel, sharing the
			// shared-disk uplink, after the initiation cost.
			barrier := des.NewBarrier(nodes, func() { tPartsDone = k.Now() })
			part := sizeMB / float64(nodes)
			for i := 0; i < nodes; i++ {
				net.StartFlow(part, []*netsim.Link{uplink, workers[i]},
					netsim.FlowOpts{Label: fmt.Sprintf("part-%d", i), Latency: des.Time(p.XferInitS)},
					func(f *netsim.Flow) { barrier.Arrive() })
			}
		})
	})
	if err := k.Run(); err != nil {
		panic("perf: grid simulation diverged: " + err.Error())
	}
	run.MoveWhole = tWholeDone
	run.Split = tSplitDone - tWholeDone
	run.MoveParts = tPartsDone - tSplitDone
	run.StageCode = des.Time(p.CodeStageS)
	// Phase 4: Amdahl engine model. T1 is the single-node scan time;
	// the serial fraction covers session fan-out, snapshot merging and
	// the straggler tail the paper's Table 2 exhibits.
	t1 := sizeMB / p.EngineMBps
	run.Analysis = des.Time(p.SerialFrac*t1 + (1-p.SerialFrac)*t1/float64(nodes))
	return run
}

// SimulateLocal runs the Table 1 desktop baseline.
func SimulateLocal(p Params, sizeMB float64) LocalRun {
	return LocalRun{
		SizeMB:     sizeMB,
		GetDataset: des.Time(sizeMB / p.ClientWANMBps),
		Analysis:   des.Time(sizeMB / p.LocalMBps),
	}
}

// Paper-reported values, the reference side of every comparison.

// PaperTable1 holds the paper's Table 1 rows in seconds.
type PaperTable1Values struct {
	LocalGet, LocalAnalysis, LocalTotal          float64
	GridStage, GridCode, GridAnalysis, GridTotal float64
	DatasetMB                                    float64
	GridNodes                                    int
}

// PaperTable1 returns the published Table 1 numbers.
func PaperTable1() PaperTable1Values {
	return PaperTable1Values{
		DatasetMB: 471, GridNodes: 16,
		LocalGet: 32 * 60, LocalAnalysis: 13 * 60, LocalTotal: 45 * 60,
		GridStage: 174, GridCode: 7, GridAnalysis: 258, GridTotal: 259,
	}
}

// Table2Row is one row of Table 2 (seconds).
type Table2Row struct {
	Nodes     int
	MoveWhole float64
	Split     float64
	MoveParts float64
	Analysis  float64
}

// PaperTable2 returns the published Table 2 rows.
func PaperTable2() []Table2Row {
	return []Table2Row{
		{1, 63, 120, 105, 330},
		{2, 63, 120, 77, 287},
		{4, 63, 115, 70, 190},
		{8, 63, 117, 65, 148},
		{16, 63, 124, 50, 78},
	}
}

// Table2 simulates the Table 2 sweep at 471 MB.
func Table2(p Params) []Table2Row {
	out := make([]Table2Row, 0, 5)
	for _, n := range []int{1, 2, 4, 8, 16} {
		run := SimulateGrid(p, 471, n)
		out = append(out, Table2Row{
			Nodes:     n,
			MoveWhole: float64(run.MoveWhole),
			Split:     float64(run.Split),
			MoveParts: float64(run.MoveParts),
			Analysis:  float64(run.Analysis),
		})
	}
	return out
}

// Table1Result pairs simulated values with the paper's.
type Table1Result struct {
	Local LocalRun
	Grid  GridRun
	Paper PaperTable1Values
}

// Table1 simulates the Table 1 comparison (471 MB, 16 nodes).
func Table1(p Params) Table1Result {
	return Table1Result{
		Local: SimulateLocal(p, 471),
		Grid:  SimulateGrid(p, 471, 16),
		Paper: PaperTable1(),
	}
}

// Paper §4 fitted equations.

// PaperLocalT evaluates the paper's local model T = 11.5·X.
func PaperLocalT(x float64) float64 { return 11.5 * x }

// PaperGridT evaluates the paper's grid model
// T = 0.38·X + 53 + (62 + 5.3·X)/N.
func PaperGridT(x float64, n int) float64 {
	return 0.38*x + 53 + (62+5.3*x)/float64(n)
}

// Crossover returns the dataset size above which the Grid beats local for
// a node count, under the given time functions; it scans [0.1, 10000] MB.
func Crossover(n int, localT func(float64) float64, gridT func(float64, int) float64) float64 {
	lo, hi := 0.1, 10000.0
	if gridT(hi, n) >= localT(hi) {
		return -1 // grid never wins in range
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if gridT(mid, n) < localT(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
