package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// memFile adapts a bytes.Buffer into an io.ReaderAt.
type memFile struct{ b []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func build(t testing.TB, records [][]byte, stride uint32) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterStride(&buf, stride)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&memFile{buf.Bytes()}, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma gamma"), {0, 1, 2, 255}}
	r := build(t, recs, 2)
	if r.NumRecords() != int64(len(recs)) {
		t.Fatalf("NumRecords = %d, want %d", r.NumRecords(), len(recs))
	}
	for i, want := range recs {
		got, err := r.Record(int64(i))
		if err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Record(%d) = %q, want %q", i, got, want)
		}
	}
	if err := r.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyContainer(t *testing.T) {
	r := build(t, nil, 64)
	if r.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d, want 0", r.NumRecords())
	}
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("Next on empty = %v, want EOF", err)
	}
}

func TestIteratorRange(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 100; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%03d", i)))
	}
	r := build(t, recs, 7) // stride that doesn't divide the boundaries
	it, err := r.Iter(33, 66)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 33; ; i++ {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("record-%03d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
		n++
	}
	if n != 33 {
		t.Fatalf("iterated %d records, want 33", n)
	}
}

func TestIterBadRanges(t *testing.T) {
	r := build(t, [][]byte{[]byte("x")}, 64)
	for _, c := range []struct{ from, to int64 }{{-1, 0}, {0, 2}, {1, 0}} {
		if _, err := r.Iter(c.from, c.to); err == nil {
			t.Fatalf("Iter(%d,%d) accepted", c.from, c.to)
		}
	}
}

func TestRecordOutOfRange(t *testing.T) {
	r := build(t, [][]byte{[]byte("x")}, 64)
	if _, err := r.Record(1); err == nil {
		t.Fatal("Record(1) of 1-record file accepted")
	}
	if _, err := r.Record(-1); err == nil {
		t.Fatal("Record(-1) accepted")
	}
}

func TestOffsetOfMonotonic(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 50; i++ {
		recs = append(recs, bytes.Repeat([]byte{byte(i)}, i%17))
	}
	r := build(t, recs, 8)
	prev := int64(-1)
	for i := int64(0); i <= r.NumRecords(); i++ {
		off, err := r.OffsetOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if off <= prev {
			t.Fatalf("OffsetOf(%d) = %d not monotonic (prev %d)", i, off, prev)
		}
		prev = off
	}
}

func TestCorruptMagic(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append([]byte("hi"))
	w.Close()
	b := buf.Bytes()
	b[0] = 'X'
	if _, err := NewReader(&memFile{b}, int64(len(b))); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestCorruptTrailer(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Append([]byte("hi"))
	w.Close()
	b := buf.Bytes()
	b[len(b)-1] ^= 0xff
	if _, err := NewReader(&memFile{b}, int64(len(b))); err == nil {
		t.Fatal("corrupt trailer accepted")
	}
}

func TestChecksumDetectsFlippedBit(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	payload := bytes.Repeat([]byte("data"), 100)
	w.Append(payload)
	w.Close()
	b := buf.Bytes()
	b[20] ^= 1 // flip a payload bit
	r, err := NewReader(&memFile{b}, int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyChecksum(); err == nil {
		t.Fatal("flipped payload bit not detected")
	}
}

func TestTooSmall(t *testing.T) {
	if _, err := NewReader(&memFile{[]byte("tiny")}, 4); err == nil {
		t.Fatal("4-byte file accepted")
	}
}

func TestAppendAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	if err := w.Append([]byte("late")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.ipa")
	w, closer, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	r, f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r.NumRecords() != 10 {
		t.Fatalf("NumRecords = %d", r.NumRecords())
	}
	rec, err := r.Record(7)
	if err != nil || rec[0] != 7 {
		t.Fatalf("Record(7) = %v, %v", rec, err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, _, err := Open(filepath.Join(t.TempDir(), "nope.ipa")); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestOpenNotAContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte("junk"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("junk file accepted as container")
	}
}

// Property: any slice of random records survives a round trip with every
// stride, in order, under both random and sequential access.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, stride uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		st := uint32(stride%16) + 1
		recs := make([][]byte, count)
		for i := range recs {
			recs[i] = make([]byte, rng.Intn(200))
			rng.Read(recs[i])
		}
		r := build(t, recs, st)
		if r.NumRecords() != int64(count) {
			return false
		}
		// Sequential.
		it, err := r.Iter(0, -1)
		if err != nil {
			return false
		}
		for i := 0; ; i++ {
			rec, err := it.Next()
			if err == io.EOF {
				if i != count {
					return false
				}
				break
			}
			if err != nil || !bytes.Equal(rec, recs[i]) {
				return false
			}
		}
		// Random access at a few indices.
		for _, i := range []int{0, count / 2, count - 1} {
			rec, err := r.Record(int64(i))
			if err != nil || !bytes.Equal(rec, recs[i]) {
				return false
			}
		}
		return r.VerifyChecksum() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random record sizes (some larger than the window), index
// strides, window sizes and range edges, windowed iteration returns the
// same bytes as Record(i), and Record's copies survive later iteration.
func TestWindowedIterMatchesRecord(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := []int{0, 1, 7, 64, 300, IterWindow}[rng.Intn(6)]
		count := rng.Intn(120) + 1
		recs := make([][]byte, count)
		for i := range recs {
			size := rng.Intn(100)
			if rng.Intn(8) == 0 {
				size = window + rng.Intn(500) // larger than the window
			}
			recs[i] = make([]byte, size)
			rng.Read(recs[i])
		}
		r := build(t, recs, uint32(rng.Intn(20)+1))
		owned := make([][]byte, count)
		for i := range owned {
			rec, err := r.Record(int64(i))
			if err != nil || !bytes.Equal(rec, recs[i]) {
				t.Logf("seed %d: Record(%d) = %v", seed, i, err)
				return false
			}
			owned[i] = rec
		}
		for trial := 0; trial < 5; trial++ {
			from := int64(rng.Intn(count + 1))
			to := from + int64(rng.Intn(count-int(from)+1))
			it, err := r.iter(from, to, window)
			if err != nil {
				t.Logf("seed %d: iter(%d,%d): %v", seed, from, to, err)
				return false
			}
			for i := from; ; i++ {
				if it.Index() != i {
					return false
				}
				rec, err := it.Next()
				if err == io.EOF {
					if i != to {
						t.Logf("seed %d: iter(%d,%d) stopped at %d", seed, from, to, i)
						return false
					}
					break
				}
				if err != nil || !bytes.Equal(rec, owned[i]) {
					t.Logf("seed %d: iter(%d,%d) record %d: %v", seed, from, to, i, err)
					return false
				}
			}
		}
		for i := range owned {
			if !bytes.Equal(owned[i], recs[i]) {
				t.Logf("seed %d: Record(%d) copy changed by iteration", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// openTestFile writes n records of varying sizes (one in 100 larger than the
// window) to a container file and opens it.
func openTestFile(t testing.TB, n int) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "iter.ipa")
	w, closer, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		size := 200 + rng.Intn(1500)
		if i%100 == 99 {
			size = IterWindow + 10
		}
		rec := make([]byte, size)
		rng.Read(rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	r, f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return r
}

// TestIterNextAllocatesNothing: once its window has grown to the largest
// record, a reused iterator reads a file without allocating.
func TestIterNextAllocatesNothing(t *testing.T) {
	r := openTestFile(t, 3000)
	it, err := r.Iter(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // past the first oversized record
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2500, func() {
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per record", allocs)
	}
}

func BenchmarkIterNext(b *testing.B) {
	r := openTestFile(b, 5000)
	var bytes int64
	for i := int64(0); i < r.NumRecords(); i++ {
		off0, _ := r.OffsetOf(i)
		off1, _ := r.OffsetOf(i + 1)
		bytes += off1 - off0
	}
	b.SetBytes(bytes / r.NumRecords())
	b.ReportAllocs()
	b.ResetTimer()
	var it *Iterator
	for i := 0; i < b.N; i++ {
		if it == nil || it.Index() == r.NumRecords() {
			it, _ = r.Iter(0, -1)
		}
		if _, err := it.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReaderIter feeds arbitrary bytes through NewReader, iteration,
// random access and the checksum pass. None may panic, and every error
// must report corruption.
func FuzzReaderIter(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriterStride(&buf, 3)
	for _, rec := range []string{"alpha", "", "gamma gamma", "delta", "\x00\x01\xff"} {
		w.Append([]byte(rec))
	}
	w.Close()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader: %v is not ErrCorrupt", err)
			}
			return
		}
		check := func(what string, err error) {
			if err != nil && err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %v is not ErrCorrupt", what, err)
			}
		}
		for _, window := range []int{1, 16, IterWindow} {
			it, err := r.iter(0, -1, window)
			check("iter", err)
			for err == nil {
				_, err = it.Next()
				check("Next", err)
			}
		}
		for _, i := range []int64{0, r.NumRecords() / 2, r.NumRecords() - 1} {
			if i >= 0 && i < r.NumRecords() {
				_, err := r.Record(i)
				check("Record", err)
			}
		}
		check("VerifyChecksum", r.VerifyChecksum())
	})
}
