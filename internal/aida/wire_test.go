package aida

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// fullTree builds a tree holding one of every object kind, including a
// converted cloud, so codec tests cover every wire tag.
func fullTree(t testing.TB) *Tree {
	t.Helper()
	tr := NewTree()
	h1, _ := tr.H1D("/a", "h1", "mass", 20, 0, 10)
	for i := 0; i < 100; i++ {
		h1.FillW(float64(i%12), 0.5)
	}
	h2, _ := tr.H2D("/a/b", "h2", "e-vs-theta", 8, 0, 4, 6, -1, 1)
	for i := 0; i < 50; i++ {
		h2.FillW(float64(i%5), float64(i%3)-1, 1.5)
	}
	p1, _ := tr.P1D("/a", "p1", "", 10, 0, 1)
	for i := 0; i < 30; i++ {
		p1.Fill(float64(i)/30, float64(i%7))
	}
	c1, _ := tr.C1D("/c", "c1", "raw")
	c1.Fill(3.5)
	c1.Fill(math.Pi)
	conv := NewCloud1DLimit("c1conv", "", 2)
	conv.Fill(1)
	conv.Fill(2) // trips the limit → converted
	if err := tr.Put("/c", conv); err != nil {
		t.Fatal(err)
	}
	c2 := NewCloud2D("c2", "")
	c2.Fill(1, 2)
	c2.Fill(3, 4)
	if err := tr.Put("/c", c2); err != nil {
		t.Fatal(err)
	}
	dps, _ := tr.DPS("/d", "dps", "rows", 2)
	dps.Append(1, 2)
	if err := dps.AppendPoint(DataPoint{Coords: []Measurement{{3, 0.1, 0.2}, {4, 0, 0}}}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTreeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("tree state round trip mismatch:\n got %+v\nwant %+v", back, st)
	}
}

func TestBinaryCodecDeltaRoundTrip(t *testing.T) {
	tr := fullTree(t)
	if _, err := tr.FullDelta(); err != nil {
		t.Fatal(err)
	}
	tr.Get("/a/h1").(*Histogram1D).Fill(5)
	tr.Rm("/d/dps")
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if d.Full || len(d.Entries) != 1 || len(d.Removed) != 1 {
		t.Fatalf("delta = full:%v entries:%d removed:%v", d.Full, len(d.Entries), d.Removed)
	}
	buf, err := AppendDeltaState(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDeltaState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

// TestGobUsesBinaryCodec asserts the gob path (RMI frames) round-trips
// through the custom codec, including as a struct field and behind an
// interface, the shapes the RMI layer produces.
func TestGobUsesBinaryCodec(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		Seq   int64
		Tree  TreeState
		Delta *DeltaState
	}
	in := frame{Seq: 7, Tree: *st, Delta: &DeltaState{Full: true, Entries: st.Entries}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Tree, out.Tree) {
		t.Fatal("tree state gob round trip mismatch")
	}
	if !reflect.DeepEqual(in.Delta, out.Delta) {
		t.Fatal("delta state gob round trip mismatch")
	}

	// Nil delta field must stay nil.
	var buf2 bytes.Buffer
	if err := gob.NewEncoder(&buf2).Encode(frame{Seq: 1, Tree: *st}); err != nil {
		t.Fatal(err)
	}
	var out2 frame
	if err := gob.NewDecoder(&buf2).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Delta != nil {
		t.Fatal("nil delta came back non-nil")
	}

	// Encoding via a non-addressable interface value (the client side of
	// rmi.Call encodes `any`).
	var buf3 bytes.Buffer
	if err := gob.NewEncoder(&buf3).Encode(any(in)); err != nil {
		t.Fatalf("gob via interface: %v", err)
	}
}

func TestBinaryCodecTruncatedAndCorrupt(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeTreeState(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// A huge declared count must not panic or allocate wildly.
	bad := []byte{wireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeTreeState(bad); err == nil {
		t.Fatal("oversized count accepted")
	}
	if _, err := DecodeTreeState([]byte{99}); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestFlateFrameRoundTrip: version-2 (compressed) frames decode to the
// same states as version-1, through both the direct codec entry points
// and transparently via DecodeTreeState/DecodeDeltaState.
func TestFlateFrameRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := appendTreeStateFlate(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != wireVersionFlate {
		t.Fatalf("frame version = %d", buf[0])
	}
	back, err := DecodeTreeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Entries, back.Entries) {
		t.Fatal("compressed tree frame round trip mismatch")
	}

	tr := fullTree(t)
	if _, err := tr.FullDelta(); err != nil {
		t.Fatal(err)
	}
	tr.Get("/a/h1").(*Histogram1D).Fill(5)
	tr.Rm("/d/dps")
	d, err := tr.Delta()
	if err != nil {
		t.Fatal(err)
	}
	dbuf, err := AppendDeltaStateFlate(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	dback, err := DecodeDeltaState(dbuf)
	if err != nil {
		t.Fatal(err)
	}
	if dback.Full != d.Full || !reflect.DeepEqual(d.Entries, dback.Entries) ||
		!reflect.DeepEqual(d.Removed, dback.Removed) {
		t.Fatal("compressed delta frame round trip mismatch")
	}
}

// TestFlateFrameShrinksSparseSnapshots: the compression exists for WAN
// snapshots, which are dominated by runs of near-empty bins; such a
// frame must come out smaller compressed.
func TestFlateFrameShrinksSparseSnapshots(t *testing.T) {
	tr := NewTree()
	h, _ := tr.H1D("/a", "h", "", 5000, 0, 100)
	for i := 0; i < 50; i++ {
		h.Fill(float64(i % 100))
	}
	st, err := tr.State()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := appendTreeStateFlate(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compressed frame %d B not smaller than plain %d B", len(packed), len(plain))
	}
	t.Logf("plain %d B vs flate %d B (%.1fx)", len(plain), len(packed), float64(len(plain))/float64(len(packed)))
}

// TestGobHonorsWireCompression: a delta whose connection policy
// compresses it crosses the gob (RMI) path as a version-2 frame and
// decodes identically.
func TestGobHonorsWireCompression(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	p := NewCompressionPolicy()
	cd := &DeltaState{Full: true, Entries: st.Entries}
	cd.SetCompressionPolicy(p)
	frame, err := cd.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != wireVersionFlate {
		t.Fatalf("policy frame version = %d, want flate %d", frame[0], wireVersionFlate)
	}
	if c, s := p.Stats(); c != 1 || s != 0 {
		t.Fatalf("policy stats = %d compressed / %d skipped, want 1/0", c, s)
	}
	type msg struct{ Delta *DeltaState }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(msg{Delta: cd}); err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Delta == nil || !out.Delta.Full || !reflect.DeepEqual(st.Entries, out.Delta.Entries) {
		t.Fatal("compressed delta gob round trip mismatch")
	}
}

// TestFlateFrameCorrupt: malformed compressed frames fail cleanly.
func TestFlateFrameCorrupt(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := appendTreeStateFlate(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must never yield a silently wrong result. (The very
	// last byte only terminates the DEFLATE stream; losing it can still
	// decode — to the complete, correct payload — so "must error" would
	// be too strong a property.)
	for n := 0; n < len(buf); n++ {
		back, err := DecodeTreeState(buf[:n])
		if err == nil && !reflect.DeepEqual(st.Entries, back.Entries) {
			t.Fatalf("truncation to %d bytes decoded to wrong entries", n)
		}
	}
	// A declared raw size wildly beyond what the compressed bytes could
	// expand to must be rejected before allocating.
	huge := []byte{wireVersionFlate, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeTreeState(huge); err == nil {
		t.Fatal("oversized declared length accepted")
	}
	// Garbage where the DEFLATE stream should be.
	junk := append([]byte{wireVersionFlate}, 200, 1, 2, 3, 4, 5)
	if _, err := DecodeTreeState(junk); err == nil {
		t.Fatal("corrupt compressed body accepted")
	}
}

// TestObjectFrameRoundTrip: pre-encoded frames (the poll cache unit)
// decode back to their states directly and via gob.
func TestObjectFrameRoundTrip(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Entries {
		e := e
		frame, err := EncodeObjectFrame(&e.Object)
		if err != nil {
			t.Fatal(err)
		}
		back, err := frame.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e.Object, back) {
			t.Fatalf("%s: object frame round trip mismatch", e.Path)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(frame); err != nil {
			t.Fatal(err)
		}
		// The gob body must embed the frame verbatim (no re-encode).
		if !bytes.Contains(buf.Bytes(), frame) {
			t.Fatalf("%s: gob re-encoded the cached frame", e.Path)
		}
		var dec ObjectFrame
		if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, frame) {
			t.Fatalf("%s: frame gob round trip mismatch", e.Path)
		}
	}
}

func TestEncodedSizeBeatsReflectionGob(t *testing.T) {
	st, err := fullTree(t).State()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := AppendTreeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	// Reflection-driven gob over the equivalent shape (custom codecs
	// stripped) for a like-for-like size comparison.
	type entry struct {
		Path string
		H1   *H1DState
		H2   *H2DState
		P1   *P1DState
		C1   *C1DState
		C2   *C2DState
		DP   *DPSState
	}
	var plain []entry
	for _, e := range st.Entries {
		plain = append(plain, entry{e.Path, e.Object.H1, e.Object.H2, e.Object.P1, e.Object.C1, e.Object.C2, e.Object.DP})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(plain); err != nil {
		t.Fatal(err)
	}
	if len(bin) >= buf.Len() {
		t.Fatalf("binary frame (%d B) not smaller than reflection gob (%d B)", len(bin), buf.Len())
	}
	t.Logf("binary %d B vs gob %d B (%.1fx)", len(bin), buf.Len(), float64(buf.Len())/float64(len(bin)))
}

// TestRestoreRejectsInvalidAxis: a decoded state whose binning no booked
// object could have must come back from Restore as an error — never
// reach NewAxis's panic — for every binned state type.
func TestRestoreRejectsInvalidAxis(t *testing.T) {
	type axis struct {
		bins   int
		lo, hi float64
	}
	bad := map[string]axis{
		"lo>hi":     {4, 2, 1},
		"lo=hi":     {4, 1, 1},
		"lo-NaN":    {4, math.NaN(), 1},
		"hi-NaN":    {4, 0, math.NaN()},
		"lo-Inf":    {4, math.Inf(-1), 1},
		"hi-Inf":    {4, 0, math.Inf(1)},
		"zero-bins": {0, 0, 1},
		"neg-bins":  {-3, 0, 1},
		"too-many":  {MaxBins + 1, 0, 1},
	}
	// data sizes the bin arrays to the axis when that is cheap, so the
	// axis check — not the length check — is what must reject.
	data := func(bins int) int {
		if bins < 0 || bins > 64 {
			return 0
		}
		return bins + 2
	}
	for name, a := range bad {
		t.Run("H1D/"+name, func(t *testing.T) {
			s := &H1DState{Name: "h", Bins: a.bins, Lo: a.lo, Hi: a.hi, Data: make([]BinState, data(a.bins))}
			if _, err := s.Restore(); err == nil {
				t.Fatal("restored an invalid axis")
			}
		})
		t.Run("P1D/"+name, func(t *testing.T) {
			s := &P1DState{Name: "p", Bins: a.bins, Lo: a.lo, Hi: a.hi, Data: make([]ProfBinState, data(a.bins))}
			if _, err := s.Restore(); err == nil {
				t.Fatal("restored an invalid axis")
			}
		})
		t.Run("H2D-x/"+name, func(t *testing.T) {
			s := &H2DState{Name: "h2", NX: a.bins, XLo: a.lo, XHi: a.hi, NY: 2, YLo: 0, YHi: 1,
				Cells: make([]Bin2State, data(a.bins)*4)}
			if _, err := s.Restore(); err == nil {
				t.Fatal("restored an invalid x axis")
			}
		})
		t.Run("H2D-y/"+name, func(t *testing.T) {
			s := &H2DState{Name: "h2", NX: 2, XLo: 0, XHi: 1, NY: a.bins, YLo: a.lo, YHi: a.hi,
				Cells: make([]Bin2State, 4*data(a.bins))}
			if _, err := s.Restore(); err == nil {
				t.Fatal("restored an invalid y axis")
			}
		})
	}
}

// FuzzObjectFrameRestore feeds arbitrary bytes through the poll-frame
// decoder and Restore — the path every merge manager runs on publish
// payloads from the network. Neither may panic; garbage must come back
// as an error. Seeds: a valid frame of every object kind (added here)
// plus the invalid-binning and truncation cases committed under
// testdata/fuzz.
func FuzzObjectFrameRestore(f *testing.F) {
	tr := fullTree(f)
	tr.Walk(func(_ string, obj Object) {
		st, err := StateOf(obj)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := EncodeObjectFrame(&st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(frame))
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeObjectFrame(data)
		if err != nil {
			return
		}
		st.Restore()
	})
}

// FuzzDeltaStateRestore feeds arbitrary bytes through the publish-delta
// decoder and Restores every entry — what a merge manager does with
// each snapshot upload before taking its session lock. Neither step may
// panic. Seeds: a plain delta of every object kind (added here) plus a
// policy-compressed version-2 frame, a version-2 frame whose declared
// raw length is over the inflate cap, and a truncated frame, committed
// under testdata/fuzz.
func FuzzDeltaStateRestore(f *testing.F) {
	st, err := fullTree(f).State()
	if err != nil {
		f.Fatal(err)
	}
	plain, err := AppendDeltaState(nil, &DeltaState{Entries: st.Entries, Removed: []string{"/gone"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeltaState(data)
		if err != nil {
			return
		}
		for _, e := range d.Entries {
			e.Object.Restore()
		}
	})
}

// appendTreeStateFlate appends st as a compressed (version 2) frame, the
// encoding DecodeTreeState must keep accepting.
func appendTreeStateFlate(dst []byte, st *TreeState) ([]byte, error) {
	return appendFlateFrame(dst, func(b []byte) ([]byte, error) {
		return appendEntries(b, st.Entries)
	})
}
