// Package dataset implements the record container format used by IPA.
//
// The paper targets "record or event based" data where "the same analysis is
// to be performed on each event" (§1) and datasets "can be split and where
// the analysis results can be logically merged". The container is therefore
// a flat sequence of opaque, length-prefixed records plus a sparse offset
// index so a splitter can cut the file at exact record boundaries without
// scanning it (§3.4), and a CRC so staging can be verified end to end.
//
// Layout:
//
//	magic "IPADS1\x00\x00"                          (8 bytes)
//	records: uvarint length ‖ payload               (repeated)
//	index:   uint64 offset of record 0, K, 2K, …    (big endian)
//	trailer: indexOff, indexCount, indexEvery,
//	         recordCount, payloadBytes, crc32, magic (48 bytes)
//
// The trailer lives at the end so writers stream sequentially; readers need
// io.ReaderAt (a file) and start from the last 48 bytes.
package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

var (
	magic        = [8]byte{'I', 'P', 'A', 'D', 'S', '1', 0, 0}
	trailerMagic = [8]byte{'I', 'P', 'A', 'T', 'R', '1', 0, 0}
)

const (
	trailerSize = 8 + 8 + 4 + 8 + 8 + 4 + 8
	// DefaultIndexEvery is the sparse-index stride: one offset entry per
	// this many records. 64 keeps the index ~0.1% of typical event files
	// while bounding a seek's forward scan.
	DefaultIndexEvery = 64
	// MaxRecordSize guards readers against corrupt length prefixes.
	MaxRecordSize = 1 << 30
)

// ErrCorrupt is returned when magic numbers, sizes, or checksums disagree.
var ErrCorrupt = errors.New("dataset: corrupt container")

// Writer streams records into a container.
type Writer struct {
	w          *bufio.Writer
	underlying io.Writer
	off        int64
	count      int64
	payload    int64
	indexEvery uint32
	index      []uint64
	crc        uint32
	closed     bool
	err        error
	varintBuf  [binary.MaxVarintLen64]byte
}

// NewWriter begins a container on w with the default index stride.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterStride(w, DefaultIndexEvery)
}

// NewWriterStride begins a container with an explicit index stride.
func NewWriterStride(w io.Writer, indexEvery uint32) (*Writer, error) {
	if indexEvery == 0 {
		return nil, errors.New("dataset: indexEvery must be ≥ 1")
	}
	dw := &Writer{w: bufio.NewWriterSize(w, 1<<16), underlying: w, indexEvery: indexEvery}
	if _, err := dw.w.Write(magic[:]); err != nil {
		return nil, err
	}
	dw.off = int64(len(magic))
	return dw, nil
}

// Append writes one record. Records may be empty but not nil-length-bounded.
func (w *Writer) Append(record []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("dataset: append after Close")
	}
	if len(record) > MaxRecordSize {
		return fmt.Errorf("dataset: record of %d bytes exceeds max %d", len(record), MaxRecordSize)
	}
	if w.count%int64(w.indexEvery) == 0 {
		w.index = append(w.index, uint64(w.off))
	}
	n := binary.PutUvarint(w.varintBuf[:], uint64(len(record)))
	if _, err := w.w.Write(w.varintBuf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(record); err != nil {
		w.err = err
		return err
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, record)
	w.off += int64(n) + int64(len(record))
	w.count++
	w.payload += int64(len(record))
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int64 { return w.count }

// Close writes the index and trailer. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	indexOff := w.off
	var buf [8]byte
	for _, o := range w.index {
		binary.BigEndian.PutUint64(buf[:], o)
		if _, err := w.w.Write(buf[:]); err != nil {
			w.err = err
			return err
		}
	}
	var tr [trailerSize]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(indexOff))
	binary.BigEndian.PutUint64(tr[8:16], uint64(len(w.index)))
	binary.BigEndian.PutUint32(tr[16:20], w.indexEvery)
	binary.BigEndian.PutUint64(tr[20:28], uint64(w.count))
	binary.BigEndian.PutUint64(tr[28:36], uint64(w.payload))
	binary.BigEndian.PutUint32(tr[36:40], w.crc)
	copy(tr[40:48], trailerMagic[:])
	if _, err := w.w.Write(tr[:]); err != nil {
		w.err = err
		return err
	}
	return w.w.Flush()
}

// Reader provides random and sequential access to a container.
type Reader struct {
	ra         io.ReaderAt
	size       int64
	count      int64
	payload    int64
	crc        uint32
	indexEvery uint32
	index      []uint64
	indexOff   int64
}

// NewReader opens a container from a random-access byte source.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(len(magic))+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is too small", ErrCorrupt, size)
	}
	var head [8]byte
	if _, err := ra.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if head != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:])
	}
	var tr [trailerSize]byte
	if _, err := ra.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, err
	}
	if *(*[8]byte)(tr[40:48]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	r := &Reader{
		ra:         ra,
		size:       size,
		indexOff:   int64(binary.BigEndian.Uint64(tr[0:8])),
		count:      int64(binary.BigEndian.Uint64(tr[20:28])),
		payload:    int64(binary.BigEndian.Uint64(tr[28:36])),
		crc:        binary.BigEndian.Uint32(tr[36:40]),
		indexEvery: binary.BigEndian.Uint32(tr[16:20]),
	}
	indexCount := int64(binary.BigEndian.Uint64(tr[8:16]))
	if r.indexEvery == 0 || r.count < 0 || indexCount < 0 || indexCount > size/8 ||
		r.indexOff < int64(len(magic)) || r.indexOff+indexCount*8 != size-trailerSize {
		return nil, fmt.Errorf("%w: inconsistent trailer", ErrCorrupt)
	}
	want := (r.count + int64(r.indexEvery) - 1) / int64(r.indexEvery)
	if indexCount != want {
		return nil, fmt.Errorf("%w: index has %d entries, want %d", ErrCorrupt, indexCount, want)
	}
	raw := make([]byte, indexCount*8)
	if _, err := ra.ReadAt(raw, r.indexOff); err != nil {
		return nil, err
	}
	r.index = make([]uint64, indexCount)
	for i := range r.index {
		r.index[i] = binary.BigEndian.Uint64(raw[i*8:])
	}
	return r, nil
}

// NumRecords returns the record count.
func (r *Reader) NumRecords() int64 { return r.count }

// PayloadBytes returns the sum of record payload sizes.
func (r *Reader) PayloadBytes() int64 { return r.payload }

// CRC32 returns the stored IEEE checksum over all payloads.
func (r *Reader) CRC32() uint32 { return r.crc }

// OffsetOf returns the byte offset where record i begins.
func (r *Reader) OffsetOf(i int64) (int64, error) {
	if i < 0 || i > r.count {
		return 0, fmt.Errorf("dataset: record %d out of range [0,%d]", i, r.count)
	}
	if i == r.count {
		return r.indexOff, nil // one past the last record
	}
	it, err := r.seek(i, seekWindow)
	if err != nil {
		return 0, err
	}
	return it.off, nil
}

// Record reads record i into a freshly allocated slice the caller owns.
func (r *Reader) Record(i int64) ([]byte, error) {
	if i < 0 || i >= r.count {
		return nil, fmt.Errorf("dataset: record %d out of range [0,%d)", i, r.count)
	}
	// A zero-sized window reads exactly each header and the record, into
	// buffers no other caller sees.
	it, err := r.seek(i, 0)
	if err != nil {
		return nil, err
	}
	it.stop = i + 1
	return it.Next()
}

// Iter returns an iterator positioned at record from (inclusive),
// stopping before record to (exclusive). to == -1 means "to the end".
func (r *Reader) Iter(from, to int64) (*Iterator, error) {
	return r.iter(from, to, IterWindow)
}

func (r *Reader) iter(from, to int64, window int) (*Iterator, error) {
	if to == -1 {
		to = r.count
	}
	if from < 0 || to > r.count || from > to {
		return nil, fmt.Errorf("dataset: bad range [%d,%d) of %d", from, to, r.count)
	}
	if from == r.count {
		return &Iterator{r: r, off: r.indexOff, next: from, stop: to}, nil
	}
	it, err := r.seek(from, window)
	if err != nil {
		return nil, err
	}
	it.stop = to
	return it, nil
}

// seek returns an iterator at record i (< count) that reads through a
// window of the given size, starting from the nearest index entry.
func (r *Reader) seek(i int64, window int) (*Iterator, error) {
	slot := i / int64(r.indexEvery)
	it := &Iterator{r: r, off: int64(r.index[slot]), next: slot * int64(r.indexEvery), stop: r.count, size: window}
	if it.off < int64(len(magic)) || it.off > r.indexOff {
		return nil, fmt.Errorf("%w: index entry %d points at offset %d", ErrCorrupt, slot, it.off)
	}
	for it.next < i {
		if _, err := it.advance(false); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// VerifyChecksum re-reads every record and compares the running CRC with the
// trailer value.
func (r *Reader) VerifyChecksum() error {
	it, err := r.Iter(0, r.count)
	if err != nil {
		return err
	}
	var crc uint32
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, rec)
	}
	if crc != r.crc {
		return fmt.Errorf("%w: checksum %08x, trailer says %08x", ErrCorrupt, crc, r.crc)
	}
	return nil
}

const (
	// IterWindow is the read window of a sequential iterator: Next
	// serves records out of it and refills it with one ReadAt. Records
	// larger than the window grow it to fit.
	IterWindow = 64 << 10
	// seekWindow serves the forward scan from an index entry, which
	// reads only record headers.
	seekWindow = 4 << 10
)

// Iterator walks records sequentially through a reusable read window.
type Iterator struct {
	r    *Reader
	off  int64 // file offset of record next
	next int64
	stop int64
	size int    // target window size
	win  []byte // file bytes [wOff, wOff+len(win))
	wOff int64
}

// Index returns the index of the record that Next will return.
func (it *Iterator) Index() int64 { return it.next }

// Next returns the next record, or io.EOF past the end of the range.
//
// The returned slice borrows the iterator's read window: it is valid only
// until the next call to Next, which may overwrite it. Callers that keep a
// record longer must copy it (Reader.Record returns an owned copy).
func (it *Iterator) Next() ([]byte, error) {
	if it.next >= it.stop {
		return nil, io.EOF
	}
	return it.advance(true)
}

// advance steps past the record at the iterator's offset, returning its
// bytes when body is set and reading only its header otherwise.
func (it *Iterator) advance(body bool) ([]byte, error) {
	w, err := it.window(binary.MaxVarintLen64)
	if err != nil {
		return nil, err
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("%w: record %d truncated at offset %d", ErrCorrupt, it.next, it.off)
	}
	length, n := binary.Uvarint(w)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, it.off)
	}
	if length > MaxRecordSize || int64(length) > it.r.indexOff-it.off-int64(n) {
		return nil, fmt.Errorf("%w: record %d length %d overruns the record area", ErrCorrupt, it.next, length)
	}
	end := n + int(length)
	var rec []byte
	if body {
		if end > len(w) {
			if w, err = it.window(end); err != nil {
				return nil, err
			}
		}
		rec = w[n:end:end]
	}
	it.off += int64(end)
	it.next++
	return rec, nil
}

// window returns the file bytes from the iterator's offset on, at least
// want of them unless the record area ends first, refilling the window
// with one ReadAt when it does not already hold them.
func (it *Iterator) window(want int) ([]byte, error) {
	rem := it.r.indexOff - it.off
	if int64(want) > rem {
		want = int(rem)
	}
	if it.off >= it.wOff && it.off+int64(want) <= it.wOff+int64(len(it.win)) {
		return it.win[it.off-it.wOff:], nil
	}
	n := max(it.size, want)
	if int64(n) > rem {
		n = int(rem)
	}
	if cap(it.win) < n {
		it.win = make([]byte, n)
	}
	it.win = it.win[:n]
	it.wOff = it.off
	if m, err := it.r.ra.ReadAt(it.win, it.off); m < n {
		it.win = it.win[:0]
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: reading record %d: %w", it.next, err)
	}
	return it.win, nil
}

// Create opens path for writing and returns a container writer plus a
// closer that finalizes both the container and the file.
func Create(path string) (*Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closer := func() error {
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return w, closer, nil
}

// CreateRaw opens path as a plain byte sink with a closer — for callers
// (like the splitter) that drive their own container Writer over the file.
func CreateRaw(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Open opens a container file for reading. Close the returned file when done.
func Open(path string) (*Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}
