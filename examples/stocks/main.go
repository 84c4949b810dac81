// Stock-trade analysis — the paper's third motivating domain: "stock
// trading records in business" (§1). Records are CSV-ish trade lines; the
// uploaded script computes per-symbol volume-weighted average prices and a
// trade-size histogram, using the interactive Step control to preview the
// first chunk before committing to the full run.
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

const stocksScript = `
// Trade record: "SYMBOL,price,shares"
sizes = tree.h1d("/trades", "shares", "Shares per trade", 50, 0, 5000);
px = tree.p1d("/trades", "price-by-size", "Price vs trade size", 25, 0, 5000);
vwapNum = {}; vwapDen = {};
function process(line) {
	f = split(line, ",");
	if (len(f) != 3) { error("bad trade record: " + line); }
	sym = f[0]; price = num(f[1]); shares = num(f[2]);
	sizes.fill(shares);
	px.fill(shares, price);
	if (!has(vwapNum, sym)) { vwapNum[sym] = 0; vwapDen[sym] = 0; }
	vwapNum[sym] += price * shares;
	vwapDen[sym] += shares;
}
function end() {
	for (sym : vwapNum) {
		println(sym, "vwap", format("%.2f", vwapNum[sym] / vwapDen[sym]));
	}
}
`

func writeTrades(path string, n int, seed int64) (float64, int64, error) {
	w, closer, err := dataset.Create(path)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	symbols := []string{"SLAC", "TXCP", "GRID", "AIDA"}
	base := map[string]float64{"SLAC": 42, "TXCP": 17, "GRID": 99, "AIDA": 65}
	var total int64
	for i := 0; i < n; i++ {
		sym := symbols[rng.Intn(len(symbols))]
		price := base[sym] * (1 + rng.NormFloat64()*0.02)
		shares := 100 * (1 + rng.Intn(40))
		rec := fmt.Sprintf("%s,%.2f,%d", sym, price, shares)
		if err := w.Append([]byte(rec)); err != nil {
			closer()
			return 0, 0, err
		}
		total += int64(len(rec))
	}
	return float64(total) / (1 << 20), int64(n), closer()
}

func main() {
	grid, err := ipa.NewLocalGrid(ipa.GridOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	grid.AddUser("trader", ipa.RoleAnalyst)

	dir, _ := os.MkdirTemp("", "stocks-*")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trades.ipa")
	sizeMB, records, err := writeTrades(path, 30000, 5)
	if err != nil {
		log.Fatal(err)
	}
	grid.Catalog.AddDataset("/markets", catalog.DatasetRef{
		ID: "ds-trades", Name: "trades-2006", SizeMB: sizeMB, Records: records, Format: "raw",
	}, map[string]string{"exchange": "synthetic"})
	grid.Locator.Register("ds-trades", locator.Replica{URL: "file://" + path, Site: "local", Priority: 1})

	client, _ := grid.ClientFor("trader")
	if err := client.CreateSession(); err != nil {
		log.Fatal(err)
	}
	defer client.CloseSession()
	if _, err := client.AttachDataset("ds-trades"); err != nil {
		log.Fatal(err)
	}
	if _, err := client.LoadScript("vwap", stocksScript, "raw", nil); err != nil {
		log.Fatal(err)
	}

	// Preview: step 500 trades per engine, inspect, then run the rest —
	// the interactive "run specific no of events" control of Figure 4.
	if err := client.Step(500); err != nil {
		log.Fatal(err)
	}
	waitIdle(client, 2000)
	fmt.Println("--- preview after 2000 trades ---")
	fmt.Print(ipa.RenderH1D(client.Histogram1D("/trades/shares"), ipa.RenderOptions{Width: 40}))

	if err := client.Run(); err != nil {
		log.Fatal(err)
	}
	waitAll(client)
	fmt.Println("\n--- full dataset ---")
	fmt.Print(ipa.RenderH1D(client.Histogram1D("/trades/shares"), ipa.RenderOptions{Width: 40}))
	up, _ := client.Poll()
	_ = up
	for _, l := range drainLogs(client) {
		fmt.Println("  [engine]", l)
	}
}

func waitIdle(c *ipa.Client, want int64) {
	for {
		up, err := c.Poll()
		if err != nil {
			log.Fatal(err)
		}
		if up.EventsDone >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func waitAll(c *ipa.Client) {
	for {
		up, err := c.Poll()
		if err != nil {
			log.Fatal(err)
		}
		if up.Done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func drainLogs(c *ipa.Client) []string {
	up, err := c.Poll()
	if err != nil {
		return nil
	}
	return up.Logs
}
