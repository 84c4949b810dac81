// Quickstart: stand up a complete in-process Grid site, publish a small
// simulated Linear Collider dataset, run a scripted analysis on 4 parallel
// engines, and print the merged histogram — the paper's Figure 1 workflow
// in one file.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/ipa-grid/ipa"
)

const analysisScript = `
// User analysis code, shipped as source to every engine (§3.5).
mult = tree.h1d("/demo", "multiplicity", "Particles per event", 40, 0, 160);
energy = tree.h1d("/demo", "energy", "Total visible energy [GeV]", 50, 0, 800);
function process(ev) {
	mult.fill(ev.n);
	tot = 0;
	for (p : ev.particles) tot += p.e;
	energy.fill(tot);
}
function end() { println("worker", workerid, "done:", mult.entries(), "events"); }
`

func main() {
	// A 4-node Grid site with security, scheduler, storage and services.
	grid, err := ipa.NewLocalGrid(ipa.GridOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()

	// Enroll a user in the VO and publish a dataset into the catalog.
	if _, err := grid.AddUser("alice", ipa.RoleAnalyst); err != nil {
		log.Fatal(err)
	}
	if err := grid.PublishDataset("ds-demo", "/lc/demo", "demo-events", 4000,
		ipa.GenConfig{Seed: 7}, map[string]string{"detector": "sid"}); err != nil {
		log.Fatal(err)
	}

	// Step 1-2: obtain a proxy, connect, create the session (engines
	// start on the interactive queue via GRAM).
	client, err := grid.ClientFor("alice")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.CreateSession(); err != nil {
		log.Fatal(err)
	}
	defer client.CloseSession()
	fmt.Printf("session %s with %d engines\n", client.SessionID()[:8], client.Engines())

	// Step 3: pick the dataset from the catalog and stage it.
	hits, err := client.QueryCatalog(`detector == "sid"`)
	if err != nil || len(hits) == 0 {
		log.Fatalf("catalog query: %v (%d hits)", err, len(hits))
	}
	times, err := client.AttachDataset(hits[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("staged %.1f MB into %d parts (move=%dms split=%dms parts=%dms)\n",
		times.SizeMB, times.Parts, times.MoveWhole, times.Split, times.MoveParts)

	// Step 4: ship the analysis script and run.
	if _, err := client.LoadScript("demo", analysisScript, ipa.EventDecoderName, nil); err != nil {
		log.Fatal(err)
	}
	if err := client.Run(); err != nil {
		log.Fatal(err)
	}

	// Watch intermediate results arrive, like the JAS3 panels (Figure 4).
	for {
		up, err := client.Poll()
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range up.Logs {
			fmt.Println("  [engine]", line)
		}
		if up.Done {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	h := client.Histogram1D("/demo/multiplicity")
	fmt.Println()
	fmt.Print(ipa.RenderH1D(h, ipa.RenderOptions{Width: 40}))
	fmt.Println()
	fmt.Print(ipa.RenderTree(client.Tree()))
}
