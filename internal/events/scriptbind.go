package events

import (
	"github.com/ipa-grid/ipa/internal/script"
)

// EventDecoderName is the script record-decoder key for LC event records.
const EventDecoderName = "lc-event"

// eventView exposes a decoded event to scripts as an object with members:
// number, run, signal, n, particles (array of particle objects). Each
// record gets its own view and particle slab, so objects a script keeps
// across events stay valid.
type eventView struct {
	number    int64
	run       int32
	signal    bool
	particles script.Array
}

// TypeName implements script.HostObject.
func (e *eventView) TypeName() string { return "event" }

// Member implements script.HostObject.
func (e *eventView) Member(name string) (script.Value, bool) {
	if f, ok := e.NumberMember(name); ok {
		return f, true
	}
	switch name {
	case "signal":
		return e.signal, true
	case "particles":
		return &e.particles, true
	}
	return nil, false
}

// NumberMember implements script.NumberObject.
func (e *eventView) NumberMember(name string) (float64, bool) {
	switch name {
	case "number":
		return float64(e.number), true
	case "run":
		return float64(e.run), true
	case "n":
		return float64(len(e.particles.Elems)), true
	}
	return 0, false
}

// particleView exposes one particle with members id, charge, px, py, pz,
// e and the derived pt, p, mass and cost, which are computed only when a
// script reads them. It holds a copy of the particle, not a reference
// into the record.
type particleView struct {
	p Particle
}

// TypeName implements script.HostObject.
func (v *particleView) TypeName() string { return "particle" }

// Member implements script.HostObject.
func (v *particleView) Member(name string) (script.Value, bool) {
	if f, ok := v.NumberMember(name); ok {
		return f, true
	}
	return nil, false
}

// NumberMember implements script.NumberObject: every particle member is
// a number.
func (v *particleView) NumberMember(name string) (float64, bool) {
	switch name {
	case "id":
		return float64(v.p.ID), true
	case "charge":
		return float64(v.p.Charge), true
	case "px":
		return float64(v.p.Px), true
	case "py":
		return float64(v.p.Py), true
	case "pz":
		return float64(v.p.Pz), true
	case "e":
		return float64(v.p.E), true
	case "pt":
		return v.p.Vec().Pt(), true
	case "p":
		return v.p.Vec().P(), true
	case "mass":
		return v.p.Vec().Mass(), true
	case "cost":
		return v.p.Vec().CosTheta(), true
	}
	return 0, false
}

// decodeScriptEvent builds the script view of one record: the event
// object, one slab of particle views and the array over them.
func decodeScriptEvent(rec []byte) (script.Value, error) {
	var hdr Event
	n, err := decodeHeader(rec, &hdr)
	if err != nil {
		return nil, err
	}
	ev := &eventView{number: hdr.Number, run: hdr.Run, signal: hdr.IsSignal}
	slab := make([]particleView, n)
	ev.particles.Elems = make([]script.Value, n)
	for i := range slab {
		slab[i].p = particleAt(rec, i)
		ev.particles.Elems[i] = &slab[i]
	}
	return ev, nil
}

// pairMass computes the invariant mass of two particle script objects —
// provided natively because it is the hot inner loop of every dijet scan.
func pairMass(args []script.Value) (script.Value, error) {
	if len(args) != 2 {
		return nil, errArity
	}
	p1, ok1 := args[0].(*particleView)
	p2, ok2 := args[1].(*particleView)
	if !ok1 || !ok2 {
		return nil, errNotParticle
	}
	return p1.p.Vec().Add(p2.p.Vec()).Mass(), nil
}

var (
	_ script.NumberObject = (*eventView)(nil)
	_ script.NumberObject = (*particleView)(nil)

	errArity       = &script.RuntimeError{Msg: "pairMass expects (particle, particle)"}
	errNotParticle = &script.RuntimeError{Msg: "pairMass: argument is not a particle"}
)

func init() {
	script.RegisterDecoder(EventDecoderName, decodeScriptEvent)
	script.RegisterGlobal("pairMass", script.HostFunc(pairMass))
}
