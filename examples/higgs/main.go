// Higgs search — the paper's own §4 use case: "a Java algorithm that looks
// for Higgs Bosons in simulated Linear Collider data", here as the built-in
// native analysis running on 8 parallel engines, with the interactive
// fine-tuning loop the paper motivates: run, inspect, tighten a cut,
// rewind, re-run.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/ipa-grid/ipa"
)

func main() {
	grid, err := ipa.NewLocalGrid(ipa.GridOptions{Nodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	grid.AddUser("alice", ipa.RoleAnalyst)
	// ZH events at √s = 500 GeV with a 120 GeV Higgs over continuum
	// background — the era's Linear Collider benchmark.
	if err := grid.PublishDataset("ds-zh", "/lc/zh", "zh-500", 12000,
		ipa.GenConfig{Seed: 2006, SignalFraction: 0.25},
		map[string]string{"process": "e+e- -> ZH", "energy": "500"}); err != nil {
		log.Fatal(err)
	}

	client, err := grid.ClientFor("alice")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.CreateSession(); err != nil {
		log.Fatal(err)
	}
	defer client.CloseSession()
	if _, err := client.AttachDataset("ds-zh"); err != nil {
		log.Fatal(err)
	}

	runOnce := func(minE string) {
		if _, err := client.LoadNative("higgs", ipa.HiggsAnalysisName,
			map[string]string{"minE": minE, "bins": "125"}); err != nil {
			log.Fatal(err)
		}
		if err := client.Run(); err != nil {
			log.Fatal(err)
		}
		for {
			up, err := client.Poll()
			if err != nil {
				log.Fatal(err)
			}
			if up.Done {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		h := client.Histogram1D("/higgs/dijet-mass")
		// Global maximum is the Z → qq̄ peak; the discovery statistic is
		// the maximum inside the Higgs search window, like the built-in
		// analysis annotates (higgs.peak).
		zBin := h.MaxBin()
		hPeak, hHeight := peakIn(h, 100, 140)
		fmt.Printf("minE=%s GeV: %d pairs; Z peak at %.0f GeV; Higgs-window peak at %.0f GeV (height %.0f)\n",
			minE, h.Entries(), h.Axis().BinCenter(zBin), hPeak, hHeight)
		fmt.Print(ipa.RenderH1D(h, ipa.RenderOptions{Width: 50, MaxRow: 60}))
		fmt.Println()
	}

	fmt.Println("=== first pass: loose selection (minE = 10 GeV) ===")
	runOnce("10")

	// The interactive loop of §3.6: change the analysis, rewind, rerun
	// the same staged dataset — no re-staging.
	fmt.Println("=== fine-tuned: tighter jets (minE = 40 GeV), after rewind ===")
	if err := client.Rewind(); err != nil {
		log.Fatal(err)
	}
	runOnce("40")
}

// peakIn finds the highest bin with center in [lo, hi].
func peakIn(h *ipa.Histogram1D, lo, hi float64) (center, height float64) {
	ax := h.Axis()
	height = -1
	for i := 0; i < ax.Bins(); i++ {
		c := ax.BinCenter(i)
		if c >= lo && c <= hi && h.BinHeight(i) > height {
			center, height = c, h.BinHeight(i)
		}
	}
	return center, height
}
