// DNA motif counting — the paper's second motivating domain: "DNA
// sequencing combinations in cellular biology" (§1). Each dataset record
// is a synthetic DNA read; the uploaded script counts GC content and
// scans for a motif, demonstrating that the framework is generic over
// record formats (the script uses the raw decoder and string builtins).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/ipa-grid/ipa"
	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/locator"
)

const dnaScript = `
gc = tree.h1d("/dna", "gc-content", "GC fraction per read", 50, 0, 1);
hits = tree.h1d("/dna", "motif-hits", "TATA motifs per read", 10, 0, 10);
function process(read) {
	n = len(read);
	if (n == 0) return;
	g = 0;
	count = 0;
	for (i : n) {
		c = read[i];
		if (c == "G" || c == "C") g += 1;
		if (i + 4 <= n && read[i] == "T" && read[i+1] == "A" && read[i+2] == "T" && read[i+3] == "A") count += 1;
	}
	gc.fill(g / n);
	hits.fill(count);
}
`

// writeReads generates a dataset of random DNA reads.
func writeReads(path string, n int, seed int64) (sizeMB float64, err error) {
	w, closer, err := dataset.Create(path)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	letters := []byte("ACGT")
	var total int64
	for i := 0; i < n; i++ {
		read := make([]byte, 80+rng.Intn(120))
		for j := range read {
			read[j] = letters[rng.Intn(4)]
		}
		if err := w.Append(read); err != nil {
			closer()
			return 0, err
		}
		total += int64(len(read))
	}
	return float64(total) / (1 << 20), closer()
}

func main() {
	grid, err := ipa.NewLocalGrid(ipa.GridOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	grid.AddUser("curie", ipa.RoleAnalyst)

	// Publish a raw-format dataset by hand (PublishDataset is LC-specific).
	dir, _ := os.MkdirTemp("", "dna-*")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "genome.ipa")
	sizeMB, err := writeReads(path, 20000, 11)
	if err != nil {
		log.Fatal(err)
	}
	if err := grid.Catalog.AddDataset("/bio", catalog.DatasetRef{
		ID: "ds-genome", Name: "genome-x", SizeMB: sizeMB, Records: 20000, Format: "raw",
	}, map[string]string{"organism": "synthetic"}); err != nil {
		log.Fatal(err)
	}
	if err := grid.Locator.Register("ds-genome", locator.Replica{
		URL: "file://" + path, Site: "local", Priority: 1,
	}); err != nil {
		log.Fatal(err)
	}

	client, _ := grid.ClientFor("curie")
	if err := client.CreateSession(); err != nil {
		log.Fatal(err)
	}
	defer client.CloseSession()
	if _, err := client.AttachDataset("ds-genome"); err != nil {
		log.Fatal(err)
	}
	if _, err := client.LoadScript("dna", dnaScript, "raw", nil); err != nil {
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
	fmt.Print(ipa.RenderH1D(client.Histogram1D("/dna/gc-content"), ipa.RenderOptions{Width: 40}))
	fmt.Println()
	fmt.Print(ipa.RenderH1D(client.Histogram1D("/dna/motif-hits"), ipa.RenderOptions{Width: 40}))
}
