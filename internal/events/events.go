// Package events models the record-based physics data the paper analyzes:
// "simulations of the future Linear Collider Experiment" (§3).
//
// It provides a four-vector algebra, a compact binary event encoding that
// rides inside dataset containers, a deterministic seeded generator for
// e+e- → ZH signal over continuum background at √s = 500 GeV, and the
// reference "look for Higgs bosons" analysis the paper times (§4): a dijet
// invariant-mass scan that peaks at the generated Higgs mass.
package events

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// FourVec is an energy-momentum four-vector in GeV.
type FourVec struct {
	Px, Py, Pz, E float64
}

// Add returns the four-vector sum.
func (v FourVec) Add(o FourVec) FourVec {
	return FourVec{v.Px + o.Px, v.Py + o.Py, v.Pz + o.Pz, v.E + o.E}
}

// P returns the magnitude of the three-momentum.
func (v FourVec) P() float64 { return math.Sqrt(v.Px*v.Px + v.Py*v.Py + v.Pz*v.Pz) }

// Pt returns the transverse momentum.
func (v FourVec) Pt() float64 { return math.Sqrt(v.Px*v.Px + v.Py*v.Py) }

// Mass returns the invariant mass sqrt(E² − |p|²), clamped at 0 for
// round-off-negative arguments.
func (v FourVec) Mass() float64 {
	m2 := v.E*v.E - v.Px*v.Px - v.Py*v.Py - v.Pz*v.Pz
	if m2 < 0 {
		return 0
	}
	return math.Sqrt(m2)
}

// CosTheta returns the polar angle cosine relative to the beam (z) axis.
func (v FourVec) CosTheta() float64 {
	p := v.P()
	if p == 0 {
		return 0
	}
	return v.Pz / p
}

// Boost applies a Lorentz boost with velocity β = (bx, by, bz) (|β| < 1).
func (v FourVec) Boost(bx, by, bz float64) FourVec {
	b2 := bx*bx + by*by + bz*bz
	if b2 == 0 {
		return v
	}
	gamma := 1 / math.Sqrt(1-b2)
	bp := bx*v.Px + by*v.Py + bz*v.Pz
	gamma2 := (gamma - 1) / b2
	return FourVec{
		Px: v.Px + gamma2*bp*bx + gamma*bx*v.E,
		Py: v.Py + gamma2*bp*by + gamma*by*v.E,
		Pz: v.Pz + gamma2*bp*bz + gamma*bz*v.E,
		E:  gamma * (v.E + bp),
	}
}

// BoostVector returns β = p/E, the velocity that boosts the rest frame of
// this vector into the lab.
func (v FourVec) BoostVector() (bx, by, bz float64) {
	if v.E == 0 {
		return 0, 0, 0
	}
	return v.Px / v.E, v.Py / v.E, v.Pz / v.E
}

// Particle type codes (PDG-inspired).
const (
	IDPionPlus int32 = 211
	IDPhoton   int32 = 22
	IDQuarkJet int32 = 1 // light-quark jet pseudo-particle
	IDBJet     int32 = 5 // b-quark jet pseudo-particle
	IDElectron int32 = 11
	IDMuon     int32 = 13
)

// Particle is a compact final-state object: a real particle or a jet
// pseudo-particle, momenta in GeV (float32 keeps events small on disk).
type Particle struct {
	ID     int32
	Charge int8
	Px     float32
	Py     float32
	Pz     float32
	E      float32
}

// Vec returns the particle's four-vector in float64 precision.
func (p Particle) Vec() FourVec {
	return FourVec{float64(p.Px), float64(p.Py), float64(p.Pz), float64(p.E)}
}

// Event is one collision record.
type Event struct {
	Number    int64
	Run       int32
	IsSignal  bool // generator truth (carried for efficiency studies)
	Particles []Particle
}

// TotalEnergy sums particle energies.
func (e *Event) TotalEnergy() float64 {
	s := 0.0
	for _, p := range e.Particles {
		s += float64(p.E)
	}
	return s
}

const (
	eventHeaderSize = 8 + 4 + 1 + 4 // number, run, flags, count
	particleSize    = 4 + 1 + 4*4
	// MaxParticles bounds decoding of corrupt records.
	MaxParticles = 1 << 20
)

// ErrBadRecord reports a malformed encoded event.
var ErrBadRecord = errors.New("events: bad record")

// Marshal encodes the event, appending to dst (pass nil for a new buffer).
func Marshal(dst []byte, e *Event) []byte {
	need := eventHeaderSize + particleSize*len(e.Particles)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	b := dst[off:]
	binary.LittleEndian.PutUint64(b[0:], uint64(e.Number))
	binary.LittleEndian.PutUint32(b[8:], uint32(e.Run))
	if e.IsSignal {
		b[12] = 1
	}
	binary.LittleEndian.PutUint32(b[13:], uint32(len(e.Particles)))
	at := eventHeaderSize
	for _, p := range e.Particles {
		binary.LittleEndian.PutUint32(b[at:], uint32(p.ID))
		b[at+4] = byte(p.Charge)
		binary.LittleEndian.PutUint32(b[at+5:], math.Float32bits(p.Px))
		binary.LittleEndian.PutUint32(b[at+9:], math.Float32bits(p.Py))
		binary.LittleEndian.PutUint32(b[at+13:], math.Float32bits(p.Pz))
		binary.LittleEndian.PutUint32(b[at+17:], math.Float32bits(p.E))
		at += particleSize
	}
	return dst
}

// Unmarshal decodes an event record.
func Unmarshal(rec []byte) (*Event, error) {
	var e Event
	if err := UnmarshalInto(rec, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// UnmarshalInto decodes into an existing Event, reusing its particle slice.
// Engines call this once per record, so avoiding the per-event allocation
// matters at the multi-hundred-MB dataset sizes of Table 2.
func UnmarshalInto(rec []byte, e *Event) error {
	n, err := decodeHeader(rec, e)
	if err != nil {
		return err
	}
	if cap(e.Particles) < n {
		e.Particles = make([]Particle, n)
	} else {
		e.Particles = e.Particles[:n]
	}
	for i := range e.Particles {
		e.Particles[i] = particleAt(rec, i)
	}
	return nil
}

// decodeHeader fills e's scalar fields from rec and returns the particle
// count after checking that rec holds exactly that many particles.
func decodeHeader(rec []byte, e *Event) (int, error) {
	if len(rec) < eventHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(rec))
	}
	e.Number = int64(binary.LittleEndian.Uint64(rec[0:]))
	e.Run = int32(binary.LittleEndian.Uint32(rec[8:]))
	e.IsSignal = rec[12] == 1
	n := binary.LittleEndian.Uint32(rec[13:])
	if n > MaxParticles {
		return 0, fmt.Errorf("%w: %d particles", ErrBadRecord, n)
	}
	if len(rec) != eventHeaderSize+int(n)*particleSize {
		return 0, fmt.Errorf("%w: %d bytes for %d particles", ErrBadRecord, len(rec), n)
	}
	return int(n), nil
}

// particleAt decodes particle i of a record decodeHeader has checked.
func particleAt(rec []byte, i int) Particle {
	at := eventHeaderSize + i*particleSize
	b := rec[at : at+particleSize] // one bounds check for all six fields
	return Particle{
		ID:     int32(binary.LittleEndian.Uint32(b)),
		Charge: int8(b[4]),
		Px:     math.Float32frombits(binary.LittleEndian.Uint32(b[5:])),
		Py:     math.Float32frombits(binary.LittleEndian.Uint32(b[9:])),
		Pz:     math.Float32frombits(binary.LittleEndian.Uint32(b[13:])),
		E:      math.Float32frombits(binary.LittleEndian.Uint32(b[17:])),
	}
}

// EncodedSize returns the record size for an event with n particles.
func EncodedSize(n int) int { return eventHeaderSize + particleSize*n }
