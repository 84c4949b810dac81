// Frame free-list contract: a Release-recycled buffer must never leak
// one decode's bytes into the next, and oversized buffers must not be
// retained.
package aida

import (
	"bytes"
	"testing"
)

func encodeHistFrame(t *testing.T, name string, fills int) []byte {
	t.Helper()
	h := NewHistogram1D(name, "", 32, 0, 100)
	for i := 0; i < fills; i++ {
		h.Fill(float64(i % 100))
	}
	st, err := StateOf(h)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeObjectFrame(&st)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), frame...)
}

func decodeEntries(t *testing.T, raw []byte) int64 {
	t.Helper()
	var f ObjectFrame
	if err := f.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	obj, err := f.Restore()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	return obj.(*Histogram1D).AllEntries()
}

func TestFrameReleaseRecyclesWithoutCrosstalk(t *testing.T) {
	a := encodeHistFrame(t, "a", 500)
	b := encodeHistFrame(t, "b", 77)
	// Alternate decodes so b decodes into a's released (larger) buffer
	// and vice versa.
	for i := 0; i < 8; i++ {
		if got := decodeEntries(t, a); got != 500 {
			t.Fatalf("round %d: frame a decoded to %d entries, want 500", i, got)
		}
		if got := decodeEntries(t, b); got != 77 {
			t.Fatalf("round %d: frame b decoded to %d entries, want 77", i, got)
		}
	}
}

func TestFrameReleaseIsIdempotentPerDecode(t *testing.T) {
	raw := encodeHistFrame(t, "h", 100)
	var f ObjectFrame
	if err := f.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	st, err := f.Decode()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	// The decoded state must have copied out everything it needs: reuse
	// of the released buffer by a later decode must not corrupt it.
	var g ObjectFrame
	if err := g.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	obj, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*Histogram1D).AllEntries(); got != 100 {
		t.Fatalf("state restored after Release = %d entries, want 100", got)
	}
	if !bytes.Equal(raw, []byte(g)) {
		t.Fatal("re-decoded frame bytes diverge from the wire input")
	}
}
