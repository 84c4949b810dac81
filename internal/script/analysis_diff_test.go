package script_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/script"
)

// Differential test over whole analyses: each script runs over real
// records as script.Analysis (the compiled interpreter) and through the
// same lifecycle on the tree-walking reference. The filled histograms
// must be bit-identical (entries, heights, flow bins and moments), and
// output, error text and remaining fuel must match.

// analysisRun is everything an analysis run leaves behind.
type analysisRun struct {
	objects string
	out     string
	err     string
	fuel    int64
}

// treeDump renders every object's full state; %v prints each float64 in
// its shortest round-trip form, so equal dumps mean equal bits.
func treeDump(t *aida.Tree) string {
	var b strings.Builder
	t.Walk(func(path string, obj aida.Object) {
		var st any
		switch o := obj.(type) {
		case *aida.Histogram1D:
			st = o.State()
		case *aida.Histogram2D:
			st = o.State()
		case *aida.Profile1D:
			st = o.State()
		case *aida.Cloud1D:
			st = o.State()
		default:
			st = obj.Kind()
		}
		fmt.Fprintf(&b, "%s: %+v\n", path, st)
	})
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// feed passes every record through one reused buffer, as the engine's
// read window does.
func feed(recs [][]byte, process func(rec []byte, i int) error) error {
	var window []byte
	for i, rec := range recs {
		window = append(window[:0], rec...)
		if err := process(window, i); err != nil {
			return err
		}
	}
	return nil
}

func runCompiled(src, decoder string, recs [][]byte) analysisRun {
	a, err := script.NewAnalysis(src, decoder)
	if err != nil {
		return analysisRun{err: err.Error()}
	}
	tree := aida.NewTree()
	ctx := &analysis.Context{Tree: tree, Params: map[string]string{"cut": "20"}, WorkerID: "w0"}
	err = a.Init(ctx)
	if err == nil {
		err = feed(recs, func(rec []byte, i int) error {
			ctx.EventIndex = int64(i)
			return a.Process(rec, ctx)
		})
	}
	if err == nil {
		err = a.End(ctx)
	}
	return analysisRun{objects: treeDump(tree), out: a.Output(), err: errText(err), fuel: script.AnalysisFuel(a)}
}

// runReference drives the reference through script.Analysis's lifecycle:
// the same globals, fuel top-ups and error wrapping.
func runReference(src, decoder string, recs [][]byte) analysisRun {
	prog, err := script.Compile(src)
	if err != nil {
		return analysisRun{err: err.Error()}
	}
	dec, _ := script.LookupDecoder(decoder)
	var out bytes.Buffer
	r := script.NewReference(script.Options{Output: &out, Fuel: script.PerEventFuel})
	script.InstallExtraGlobals(r)
	tree := aida.NewTree()
	r.Define("tree", script.NewTree(tree))
	params := script.NewMap()
	params.Items["cut"] = "20"
	r.Define("params", params)
	r.Define("workerid", "w0")
	err = r.Run(prog)
	if err != nil {
		err = fmt.Errorf("script top-level: %w", err)
	} else if r.Has("init") {
		if _, e := r.Call("init"); e != nil {
			err = fmt.Errorf("script init(): %w", e)
		}
	}
	if err == nil && !r.Has("process") {
		err = fmt.Errorf("script: no process(event) function defined")
	}
	if err == nil {
		err = feed(recs, func(rec []byte, i int) error {
			ev, err := dec(rec)
			if err != nil {
				return fmt.Errorf("script: decoding record %d: %w", i, err)
			}
			if rem := r.RemainingFuel(); rem < script.PerEventFuel {
				r.AddFuel(script.PerEventFuel - rem)
			}
			if _, err := r.Call("process", ev); err != nil {
				return fmt.Errorf("script process() at record %d: %w", i, err)
			}
			return nil
		})
	}
	if err == nil && r.Has("end") {
		if _, e := r.Call("end"); e != nil {
			err = fmt.Errorf("script end(): %w", e)
		}
	}
	return analysisRun{objects: treeDump(tree), out: out.String(), err: errText(err), fuel: r.RemainingFuel()}
}

func eventRecords(n int) [][]byte {
	g := events.NewGenerator(events.GenConfig{Seed: 7, SignalFraction: 0.3})
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = events.Marshal(nil, g.Next())
	}
	return recs
}

func dnaRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(3))
	recs := make([][]byte, n)
	for i := range recs {
		read := make([]byte, 20+rng.Intn(60))
		for j := range read {
			read[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = read
	}
	return recs
}

func tradeRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(4))
	syms := []string{"IBM", "SUNW", "MSFT", "ORCL"}
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%s,%.2f,%d", syms[rng.Intn(len(syms))], 10+rng.Float64()*90, 1+rng.Intn(4999)))
	}
	recs[n/2] = []byte("BAD RECORD") // the stocks script rejects it
	return recs
}

// analysisCorpus is the examples' scripts, the session benchmark's
// script-scan analysis, BenchmarkScriptAnalysis and the event-binding
// test scripts.
var analysisCorpus = []struct {
	name, decoder, src string
	recs               func(int) [][]byte
}{
	{"quickstart", events.EventDecoderName, `
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
`, eventRecords},
	{"script-scan", events.EventDecoderName, `
mult = tree.h1d("/demo", "multiplicity", "Particles per event", 40, 0, 160);
energy = tree.h1d("/demo", "energy", "Total visible energy [GeV]", 50, 0, 800);
function process(ev) {
	mult.fill(ev.n);
	tot = 0;
	for (p : ev.particles) tot += p.e;
	energy.fill(tot);
}
`, eventRecords},
	{"bench-script-analysis", events.EventDecoderName, `
		h = tree.h1d("/b", "mult", "", 50, 0, 200);
		function process(ev) {
			sel = 0;
			for (p : ev.particles) if (p.e >= 20) sel += 1;
			h.fill(sel);
		}
	`, eventRecords},
	{"dijet-scan", events.EventDecoderName, `
		cut = num(params["cut"]);
		mjj = tree.h1d("/higgs", "mjj", "Dijet mass", 125, 0, 250);
		pt = tree.h2d("/higgs", "pt-vs-cost", "", 20, 0, 100, 20, -1, 1);
		prof = tree.p1d("/higgs", "e-by-n", "", 16, 0, 160);
		cl = tree.c1d("/higgs", "sig-mass", "");
		function process(ev) {
			jets = [];
			sum = 0;
			for (p : ev.particles) {
				sum += p.e;
				pt.fill(p.pt, p.cost, p.charge == 0 ? 0.5 : 1);
				if (p.e > cut && abs(p.charge) <= 1) push(jets, p);
			}
			prof.fill(ev.n, sum);
			for (i = 0; i < len(jets); i += 1)
				for (j = i + 1; j < len(jets); j += 1) {
					m = pairMass(jets[i], jets[j]);
					mjj.fill(m, ev.signal ? 2 : 1);
					if (ev.signal && m > 100) cl.fill(m);
				}
		}
		function end() { println(mjj.entries(), mjj.mean(), mjj.rms(), cl.entries()); }
	`, eventRecords},
	{"event-members", events.EventDecoderName, `
		function process(ev) {
			println(ev.number, ev.run, ev.signal, ev.n, len(ev.particles));
			for (p : ev.particles)
				println(p.id, p.charge, p.px, p.py, p.pz, p.e, p.pt, p.p, p.mass, p.cost);
		}
	`, func(int) [][]byte { return eventRecords(3) }},
	{"kept-particle", events.EventDecoderName, `
		kept = nil; keptEv = nil;
		function process(ev) {
			if (kept == nil) { kept = ev.particles[0]; keptEv = ev; }
		}
		function end() { println(kept.e, kept.mass, keptEv.number, keptEv.particles[0] == kept); }
	`, eventRecords},
	{"member-error", events.EventDecoderName, `function process(ev) { x = ev.particles[0].bogus; }`, eventRecords},
	{"pairmass-error", events.EventDecoderName, `function process(ev) { x = pairMass(ev, ev); }`, eventRecords},
	{"runaway-event", events.EventDecoderName, `
		n = 0;
		function process(ev) { n += 1; if (n == 5) while (true) {} }
	`, eventRecords},
	{"dna", "raw", `
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
`, dnaRecords},
	{"stocks", "raw", `
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
`, tradeRecords},
	{"record-lengths", "raw", `
h = tree.h1d("/demo", "lengths", "Record lengths", 10, 0, 10);
n = 0;
function init() { println("init"); }
function process(rec) {
	h.fill(len(rec));
	n += 1;
}
function end() {
	println("processed", n, "records");
	h.annotate("records", n);
}
`, dnaRecords},
}

func TestAnalysesMatchReference(t *testing.T) {
	for _, c := range analysisCorpus {
		recs := c.recs(300)
		got := runCompiled(c.src, c.decoder, recs)
		want := runReference(c.src, c.decoder, recs)
		if got.objects != want.objects {
			t.Errorf("%s: histograms differ\ncompiled:\n%s\nreference:\n%s", c.name, got.objects, want.objects)
		}
		if got.out != want.out || got.err != want.err || got.fuel != want.fuel {
			t.Errorf("%s: compiled (out %q, err %q, fuel %d), reference (out %q, err %q, fuel %d)",
				c.name, got.out, got.err, got.fuel, want.out, want.err, want.fuel)
		}
		if got.objects == "" && got.err == "" && got.out == "" {
			t.Errorf("%s: the run left nothing to compare", c.name)
		}
	}
}

// TestQuickstartProcessAllocs holds the quickstart script's per-event
// cost in allocations. Today it is 6: the event view, its particle slab
// and array, an argument slice for each of the two fills, and the boxed
// energy sum (a multiplicity under 256 boxes without allocating).
func TestQuickstartProcessAllocs(t *testing.T) {
	a, err := script.NewAnalysis(analysisCorpus[0].src, events.EventDecoderName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	recs := eventRecords(64)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.Process(recs[i%len(recs)], ctx); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 10 {
		t.Fatalf("quickstart process() allocates %.1f times per event, want <= 10", allocs)
	}
}
