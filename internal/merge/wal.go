// Durability: an optional append-only snapshot/delta log per manager.
// Every state-changing call the manager accepts (publish, mirror,
// import, reset, drop, fence, promote) appends one length-prefixed gob
// record; a restarted ipa-manager replays the log through the same
// entry points and rejoins the fabric with its sessions intact instead
// of version-0 tombstones. Compaction rotates the live log aside and
// re-seeds a fresh one with a full snapshot per session (Import-shaped)
// so replay cost tracks live state, not history. A torn tail — the
// record an OS crash cut mid-write — is detected by its length prefix,
// truncated, and replay stops at the last complete record: the state
// that syncs is a consistent prefix, and clients behind the lost tail
// re-sync through the version-regression path they already honor.

package merge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/ipa-grid/ipa/internal/obs"
)

// walMagic heads every log file; a mismatch means the file is not ours.
const walMagic = "ipawal1\n"

// Record kinds. Snapshot records carry the same Import-shaped payload
// as imports; the separate kind only marks compaction re-seeds.
const (
	walPublish = 1 + iota
	walMirror
	walImport
	walSnapshot
	walReset
	walDrop
	walFence
	walPromote
)

// walRecord is one logged state change. Exactly one payload field is
// set, selected by Kind; each record is gob-encoded independently
// (fresh encoder per record) so a torn tail never corrupts its
// predecessors and replay needs no shared stream state.
type walRecord struct {
	Kind      uint8
	Publish   *PublishArgs
	Mirror    *MirrorArgs
	Import    *ImportArgs
	Session   string
	Tombstone bool
	Epoch     int64
}

// check rejects a record whose kind's payload is missing: a corrupt or
// foreign record must fail replay with an error, never a nil
// dereference. A pre-delta whole-tree publish record decodes with a nil
// Delta, which Publish and Mirror reject on their own.
func (rec *walRecord) check() error {
	var missing bool
	switch rec.Kind {
	case walPublish:
		missing = rec.Publish == nil
	case walMirror:
		missing = rec.Mirror == nil
	case walImport, walSnapshot:
		missing = rec.Import == nil
	}
	if missing {
		return fmt.Errorf("merge: log record of kind %d carries no payload", rec.Kind)
	}
	return nil
}

// WALOptions tune the log.
type WALOptions struct {
	// SyncEvery fsyncs after this many appended records (<=1 = every
	// record, the durable default; larger values trade the tail for
	// throughput).
	SyncEvery int
	// CompactEvery rotates and re-snapshots after this many delta
	// records since the last compaction (<=0 selects 4096).
	CompactEvery int
}

// WAL is the append-only log. Open it, Replay it into a fresh Manager,
// then attach it with Manager.SetWAL; appends happen inside the
// manager's per-session write sections, so record order matches apply
// order per session.
type WAL struct {
	path string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File
	unsynced int
	deltas   int
	closed   bool
}

// OpenWAL opens (or creates) the log at path.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 4096
	}
	w := &WAL{path: path, opts: opts}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		hdr := make([]byte, len(walMagic))
		if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != walMagic {
			f.Close()
			return nil, fmt.Errorf("merge: %s is not a manager log", path)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	w.closed = true
	w.f.Sync()
	return w.f.Close()
}

// Path reports the log's file path.
func (w *WAL) Path() string { return w.path }

// append writes one record and reports whether the delta tail crossed
// the compaction threshold.
func (w *WAL) append(rec *walRecord) (compact bool, err error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return false, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return false, nil
	}
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(buf.Len()))
	if _, err := w.f.Write(lenb[:n]); err != nil {
		return false, err
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return false, err
	}
	w.unsynced++
	if w.opts.SyncEvery <= 1 || w.unsynced >= w.opts.SyncEvery {
		t0 := obs.Now()
		if err := w.f.Sync(); err != nil {
			return false, err
		}
		obsWALFsyncSeconds.ObserveSince(t0)
		w.unsynced = 0
	}
	obsWALUnsynced.Set(int64(w.unsynced))
	switch rec.Kind {
	case walSnapshot:
	default:
		w.deltas++
	}
	if w.deltas >= w.opts.CompactEvery {
		w.deltas = 0
		return true, nil
	}
	return false, nil
}

// rotate moves the live log aside (path → path.old) and starts a fresh
// one; the compactor then re-seeds the fresh log with session
// snapshots and drops the rotation. Replay reads path.old first, so a
// crash anywhere inside compaction loses nothing.
func (w *WAL) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path, w.path+".old"); err != nil {
		// Reopen the live log: compaction failed but appends must go on.
		f, oerr := os.OpenFile(w.path, os.O_RDWR|os.O_APPEND, 0o644)
		if oerr == nil {
			w.f = f
		}
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.unsynced = 0
	return nil
}

// dropOld removes a completed compaction's rotation file.
func (w *WAL) dropOld() error {
	if err := os.Remove(w.path + ".old"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Replay feeds every logged record through the manager's normal entry
// points — imports restore baselines, publishes and mirrors re-apply
// deltas with their original seq stamps — so the rebuilt trees are
// byte-identical to what the log covered. Reads the rotation file
// first if a compaction was interrupted. Returns the record count
// applied. A torn tail on the live log is truncated so later appends
// follow the last complete record.
func (w *WAL) Replay(m *Manager) (int, error) {
	total := 0
	if old, err := os.Open(w.path + ".old"); err == nil {
		n, _, rerr := replayFile(old, m)
		old.Close()
		total += n
		if rerr != nil {
			return total, fmt.Errorf("merge: replaying %s.old: %w", w.path, rerr)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return total, nil
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return total, err
	}
	n, good, err := replayFile(w.f, m)
	total += n
	if err != nil {
		return total, err
	}
	// Cut any torn tail, then position for appends.
	if err := w.f.Truncate(good); err != nil {
		return total, err
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return total, err
	}
	return total, nil
}

// replayFile applies every complete record in r and returns how many
// applied plus the offset just past the last complete one. A torn or
// corrupt tail ends the replay without error (the crash case this log
// exists for); a record that decodes but fails to apply is an error.
func replayFile(f io.Reader, m *Manager) (n int, good int64, err error) {
	return scanFile(f, func(rec *walRecord) error { return applyRecord(m, rec) })
}

// scanFile decodes every complete record in f and hands each to apply,
// returning how many were handed over plus the offset just past the
// last complete record. A torn or corrupt tail ends the scan without
// error; an apply error stops it.
func scanFile(f io.Reader, apply func(*walRecord) error) (n int, good int64, err error) {
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != walMagic {
		return 0, 0, fmt.Errorf("merge: log header mismatch")
	}
	good = int64(len(walMagic))
	buf := make([]byte, 0, 1<<12)
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return n, good, nil // clean EOF or torn length prefix
		}
		if size > 1<<31 {
			return n, good, nil // garbage length: treat as torn tail
		}
		if uint64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(br, buf); err != nil {
			return n, good, nil // torn payload
		}
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&rec); err != nil {
			return n, good, nil // corrupt tail record
		}
		if err := apply(&rec); err != nil {
			return n, good, err
		}
		good += int64(uvarintLen(size)) + int64(size)
		n++
	}
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

func applyRecord(m *Manager, rec *walRecord) error {
	if err := rec.check(); err != nil {
		return err
	}
	switch rec.Kind {
	case walPublish:
		var pr PublishReply
		// A refused replayed publish (stale seq after a later snapshot
		// record) is the log converging, not an error.
		return m.Publish(*rec.Publish, &pr)
	case walMirror:
		var mr MirrorReply
		if err := m.Mirror(*rec.Mirror, &mr); err != nil && err != ErrFenced {
			return err
		}
		return nil
	case walImport, walSnapshot:
		var ir ImportReply
		if err := m.Import(*rec.Import, &ir); err != nil && err != ErrFenced {
			return err
		}
		return nil
	case walReset:
		var rr ResetReply
		if err := m.Reset(ResetArgs{SessionID: rec.Session}, &rr); err != nil && err != ErrSealed {
			return err
		}
		return nil
	case walDrop:
		var dr DropReply
		return m.DropSession(DropArgs{SessionID: rec.Session, Tombstone: rec.Tombstone}, &dr)
	case walFence:
		var fr FenceReply
		return m.Fence(FenceArgs{SessionID: rec.Session, Epoch: rec.Epoch}, &fr)
	case walPromote:
		var pr PromoteReply
		return m.Promote(PromoteArgs{SessionID: rec.Session, Epoch: rec.Epoch}, &pr)
	default:
		return fmt.Errorf("merge: unknown log record kind %d", rec.Kind)
	}
}

// ReplaySessionInto replays one session's state content from the log
// files at path (the rotation file first, exactly like Replay) into a
// different manager — the WAL-backed replica handoff: when a primary
// dies, the copy about to be promoted inherits every delta the primary
// durably logged, including ones the asynchronous mirror stream never
// delivered. Only state-content records are applied — snapshots and
// imports through Import, publishes and mirrors through Mirror (the
// replica-side entry point, whose seq machinery silently drops records
// the copy already holds) — never fences, promotions, resets, or drops:
// those describe the dead incarnation's lifecycle, which the failover
// itself re-decides. The files are read without truncating or locking
// anything, so a live log being appended to concurrently just yields a
// tolerated torn tail. Returns the number of records accepted by m.
func ReplaySessionInto(path, sessionID string, m *Manager) (int, error) {
	applied := 0
	apply := func(rec *walRecord) error {
		if err := rec.check(); err != nil {
			return err
		}
		switch rec.Kind {
		case walImport, walSnapshot:
			if rec.Import.SessionID != sessionID {
				return nil
			}
			var ir ImportReply
			if err := m.Import(*rec.Import, &ir); err != nil && err != ErrFenced {
				return err
			}
			applied++
		case walPublish:
			if rec.Publish.SessionID != sessionID {
				return nil
			}
			p := rec.Publish
			// The primary logged its accepted publishes; the copy replays
			// them through Mirror, the entry point built for exactly this
			// stream. Epoch 0 means "whatever incarnation you hold" —
			// correct here, because the copy adopted the dead primary's
			// epoch from the mirror stream and the promotion that follows
			// re-stamps it anyway.
			margs := MirrorArgs{
				SessionID: p.SessionID, WorkerID: p.WorkerID, Seq: p.Seq,
				Delta: p.Delta, EventsDone: p.EventsDone, EventsTotal: p.EventsTotal,
				Log: p.Log,
			}
			var mr MirrorReply
			if err := m.Mirror(margs, &mr); err != nil && err != ErrFenced {
				return err
			}
			if mr.Accepted {
				applied++
			}
		case walMirror:
			if rec.Mirror.SessionID != sessionID {
				return nil
			}
			var mr MirrorReply
			if err := m.Mirror(*rec.Mirror, &mr); err != nil && err != ErrFenced {
				return err
			}
			if mr.Accepted {
				applied++
			}
		}
		return nil
	}
	if old, err := os.Open(path + ".old"); err == nil {
		_, _, rerr := scanFile(old, apply)
		old.Close()
		if rerr != nil {
			return applied, fmt.Errorf("merge: replaying %s.old: %w", path, rerr)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return applied, nil
		}
		return applied, err
	}
	defer f.Close()
	if _, _, err := scanFile(f, apply); err != nil {
		return applied, err
	}
	return applied, nil
}

// SetWAL attaches the log: every subsequent state-changing call appends
// to it. Attach after Replay, never before (replayed records must not
// re-log themselves).
func (m *Manager) SetWAL(w *WAL) { m.wal = w }

// WAL reports the attached log (nil when durability is off).
func (m *Manager) WAL() *WAL { return m.wal }

// walAppend logs one record if a WAL is attached, kicking off an async
// compaction when the delta tail crosses the threshold. Callers hold
// the session write lock, so per-session record order matches apply
// order; the WAL's own mutex orders records across sessions.
func (m *Manager) walAppend(rec *walRecord) error {
	w := m.wal
	if w == nil {
		return nil
	}
	compact, err := w.append(rec)
	if err != nil {
		return fmt.Errorf("merge: manager log append: %w", err)
	}
	if compact {
		go m.CompactWAL()
	}
	return nil
}

// CompactWAL rotates the log aside and re-seeds a fresh one with a full
// Import-shaped snapshot per live session, then drops the rotation.
// Single-flight; concurrent triggers are no-ops. Safe against crashes
// at any point: replay reads the rotation first, and records appended
// to the fresh log before a session's snapshot landed are simply
// superseded by it.
func (m *Manager) CompactWAL() error {
	w := m.wal
	if w == nil {
		return nil
	}
	if !m.walCompacting.CompareAndSwap(false, true) {
		return nil
	}
	defer m.walCompacting.Store(false)
	if err := w.rotate(); err != nil {
		return err
	}
	var firstErr error
	m.sessions.Range(func(k, _ any) bool {
		if err := m.logSnapshot(k.(string), w); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	if firstErr != nil {
		// Keep the rotation: replay still covers everything.
		return firstErr
	}
	return w.dropOld()
}

// logSnapshot appends one session's full state as a snapshot record
// (plus its fence floor, which Import does not carry). Takes the
// session write lock, then the log mutex — the same order every logged
// write uses.
func (m *Manager) logSnapshot(sessionID string, w *WAL) error {
	s := m.lookup(sessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != 0 || len(s.workers) > 0 {
		for _, id := range s.workerIDs {
			if err := s.workers[id].materialize(); err != nil {
				return err
			}
		}
		imp := &ImportArgs{SessionID: sessionID, Version: s.version, Epoch: s.epoch.Load(), LastTraceID: s.lastTrace.Load()}
		for _, id := range s.workerIDs {
			wk := s.workers[id]
			ws := WorkerSnapshot{WorkerID: id, Seq: wk.seq, Done: wk.done, Total: wk.total}
			if wk.tree != nil {
				st, err := wk.tree.State()
				if err != nil {
					return err
				}
				ws.HasTree, ws.Tree = true, *st
			}
			imp.Workers = append(imp.Workers, ws)
		}
		for path, ver := range s.gone {
			imp.Removed = append(imp.Removed, RemovedPath{Path: path, Version: ver})
		}
		for _, l := range s.logs {
			imp.Logs = append(imp.Logs, LogLine{Version: l.version, Text: l.text})
		}
		if _, err := w.append(&walRecord{Kind: walSnapshot, Import: imp}); err != nil {
			return err
		}
	}
	if f := s.fence.Load(); f > 0 {
		if _, err := w.append(&walRecord{Kind: walFence, Session: sessionID, Epoch: f}); err != nil {
			return err
		}
	}
	return nil
}
