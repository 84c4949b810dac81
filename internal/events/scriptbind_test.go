package events

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/script"
)

// runScript runs source over recs with the lc-event decoder, feeding every
// record through one reused buffer the way the engine's read window does.
func runScript(t *testing.T, source string, recs [][]byte) (string, error) {
	t.Helper()
	a, err := script.NewAnalysis(source, EventDecoderName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &analysis.Context{Tree: aida.NewTree()}
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	var window []byte
	for i, rec := range recs {
		window = append(window[:0], rec...)
		ctx.EventIndex = int64(i)
		if err := a.Process(window, ctx); err != nil {
			return a.Output(), err
		}
	}
	err = a.End(ctx)
	return a.Output(), err
}

func genRecords(n int) ([]*Event, [][]byte) {
	g := NewGenerator(GenConfig{Seed: 3, SignalFraction: 0.5})
	evs := make([]*Event, n)
	recs := make([][]byte, n)
	for i := range evs {
		evs[i] = g.Next()
		recs[i] = Marshal(nil, evs[i])
	}
	return evs, recs
}

// TestScriptEventMembers: every event and particle member a script reads
// matches the decoded event.
func TestScriptEventMembers(t *testing.T) {
	evs, recs := genRecords(3)
	out, err := runScript(t, `
		function process(ev) {
			println(ev.number, ev.run, ev.signal, ev.n, len(ev.particles));
			for (p : ev.particles)
				println(p.id, p.charge, p.px, p.py, p.pz, p.e, p.pt, p.p, p.mass, p.cost);
		}
	`, recs)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	num := func(f float64) string { return script.ToString(f) }
	for _, e := range evs {
		fmt.Fprintln(&want, num(float64(e.Number)), num(float64(e.Run)), e.IsSignal,
			num(float64(len(e.Particles))), num(float64(len(e.Particles))))
		for _, p := range e.Particles {
			v := p.Vec()
			fmt.Fprintln(&want, num(float64(p.ID)), num(float64(p.Charge)), num(v.Px), num(v.Py),
				num(v.Pz), num(v.E), num(v.Pt()), num(v.P()), num(v.Mass()), num(v.CosTheta()))
		}
	}
	if out != want.String() {
		t.Fatalf("script saw\n%s\nwant\n%s", out, want.String())
	}
}

// TestKeptParticleSurvivesLaterEvents: a particle a script keeps from one
// event still reads that event's values after later records have reused
// the buffer it was decoded from.
func TestKeptParticleSurvivesLaterEvents(t *testing.T) {
	evs, recs := genRecords(5)
	out, err := runScript(t, `
		kept = nil; keptEv = nil;
		function process(ev) {
			if (kept == nil) { kept = ev.particles[0]; keptEv = ev; }
		}
		function end() { println(kept.e, kept.mass, keptEv.number, keptEv.particles[0] == kept); }
	`, recs)
	if err != nil {
		t.Fatal(err)
	}
	v := evs[0].Particles[0].Vec()
	want := fmt.Sprintln(script.ToString(v.E), script.ToString(v.Mass()), script.ToString(float64(evs[0].Number)), true)
	if out != want {
		t.Fatalf("kept particle reads %q, want %q", out, want)
	}
}

// TestPairMassAndErrors: pairMass matches the four-vector sum, and member,
// type and argument errors keep their wording.
func TestPairMassAndErrors(t *testing.T) {
	evs, recs := genRecords(1)
	out, err := runScript(t, `
		function process(ev) { println(pairMass(ev.particles[0], ev.particles[1]), ev.particles[0], ev); }
	`, recs)
	if err != nil {
		t.Fatal(err)
	}
	p := evs[0].Particles
	if want := fmt.Sprintln(script.ToString(p[0].Vec().Add(p[1].Vec()).Mass()), "<particle> <event>"); out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	for src, msg := range map[string]string{
		`function process(ev) { x = ev.bogus; }`:                  `event has no member "bogus"`,
		`function process(ev) { x = ev.particles[0].bogus; }`:     `particle has no member "bogus"`,
		`function process(ev) { x = pairMass(ev, ev); }`:          "pairMass: argument is not a particle",
		`function process(ev) { x = pairMass(ev.particles[0]); }`: "pairMass expects (particle, particle)",
	} {
		if _, err := runScript(t, src, recs); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: error %v, want %q", src, err, msg)
		}
	}
}

// TestScriptDecodeRejectsCorrupt: a malformed record is a decode error.
func TestScriptDecodeRejectsCorrupt(t *testing.T) {
	_, recs := genRecords(1)
	if _, err := runScript(t, `function process(ev) {}`, [][]byte{recs[0][:len(recs[0])-1]}); err == nil {
		t.Fatal("truncated record decoded")
	}
}
