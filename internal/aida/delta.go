package aida

import (
	"fmt"
	"sort"
)

// This file implements incremental tree snapshots. Engines used to ship
// their whole tree on every publish; with fill-time dirty bits on every
// object a Tree can instead emit a DeltaState carrying only the objects
// touched since the previous snapshot, making snapshot cost proportional
// to what changed rather than to total state.
//
// Protocol: the first snapshot of a tree is always a full baseline
// (DeltaState.Full). Subsequent Delta calls return only dirty or newly
// created objects plus the paths removed since the last snapshot. Deltas
// are cumulative-from-the-previous-snapshot, so consumers must apply them
// in publish order; a receiver that detects a gap asks for a resync and
// the producer answers with FullDelta, the escape hatch that re-baselines
// (also used after rewind, when the engine starts a fresh tree).
//
// Dirty bits are set by content mutations (fills, resets, scales, merges,
// cloud conversion, point appends). Annotation-only edits do not mark an
// object dirty; annotations are in practice written once at creation.

// Dirtyable is implemented by objects that track content mutation since
// the last snapshot. All built-in AIDA objects implement it; an object
// that does not is conservatively treated as always dirty.
type Dirtyable interface {
	Object
	// Dirty reports whether content changed since the last ClearDirty.
	Dirty() bool
	// ClearDirty resets the modification flag (called at snapshot time).
	ClearDirty()
}

// DeltaState is an incremental tree snapshot on the wire: the objects
// touched since the previous snapshot plus the paths removed since then.
type DeltaState struct {
	// Full marks a baseline snapshot: the receiver discards any previous
	// state for this producer and replaces it with Entries.
	Full bool
	// Entries are the changed (or, when Full, all) objects.
	Entries []TreeEntry
	// Removed lists object paths that existed at the previous snapshot
	// but are gone now (meaningless when Full: a baseline replaces all).
	Removed []string
	// policy makes the per-frame wire-compression choice for this
	// state's gob encoding — a per-connection transport choice (see
	// SetCompressionPolicy), never part of the content. nil ships plain.
	policy *CompressionPolicy
}

// SetCompressionPolicy hands the frame-version choice to an adaptive
// per-connection policy.
func (d *DeltaState) SetCompressionPolicy(p *CompressionPolicy) { d.policy = p }

// Delta emits the objects touched since the previous Delta/FullDelta call
// and clears their dirty bits. The first snapshot of a tree is a full
// baseline. The returned state is a deep copy; mutating the tree
// afterwards does not affect it.
func (t *Tree) Delta() (*DeltaState, error) {
	if t.snapped == nil {
		return t.FullDelta()
	}
	d := &DeltaState{}
	seen := make(map[string]struct{}, len(t.snapped))
	var firstErr error
	// Dirty bits are cleared only after the whole walk succeeds: clearing
	// as we go would lose the already-walked objects' updates from every
	// future delta if a later object fails to serialize.
	var snapshotted []Dirtyable
	t.Walk(func(path string, obj Object) {
		if firstErr != nil {
			return
		}
		seen[path] = struct{}{}
		_, known := t.snapped[path]
		dt, tracks := obj.(Dirtyable)
		if known && tracks && !dt.Dirty() {
			return
		}
		st, err := StateOf(obj)
		if err != nil {
			firstErr = fmt.Errorf("aida: %q: %w", path, err)
			return
		}
		d.Entries = append(d.Entries, TreeEntry{Path: path, Object: st})
		if tracks {
			snapshotted = append(snapshotted, dt)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for _, dt := range snapshotted {
		dt.ClearDirty()
	}
	for path := range t.snapped {
		if _, ok := seen[path]; !ok {
			d.Removed = append(d.Removed, path)
		}
	}
	sort.Strings(d.Removed)
	t.snapped = seen
	return d, nil
}

// FullDelta emits a full baseline snapshot (every object, Full set),
// clears all dirty bits and resets the removal bookkeeping. Producers use
// it for the first publish, after rewind, and when a receiver reports a
// sequence gap.
func (t *Tree) FullDelta() (*DeltaState, error) {
	d := &DeltaState{Full: true}
	seen := make(map[string]struct{})
	var firstErr error
	var snapshotted []Dirtyable
	t.Walk(func(path string, obj Object) {
		if firstErr != nil {
			return
		}
		seen[path] = struct{}{}
		st, err := StateOf(obj)
		if err != nil {
			firstErr = fmt.Errorf("aida: %q: %w", path, err)
			return
		}
		d.Entries = append(d.Entries, TreeEntry{Path: path, Object: st})
		if dt, ok := obj.(Dirtyable); ok {
			snapshotted = append(snapshotted, dt)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	for _, dt := range snapshotted {
		dt.ClearDirty()
	}
	t.snapped = seen
	return d, nil
}

// Restore rebuilds a tree from a baseline delta. Non-full deltas cannot
// stand alone; apply them to an existing tree instead.
func (d *DeltaState) Restore() (*Tree, error) {
	if !d.Full {
		return nil, fmt.Errorf("aida: cannot restore a non-baseline delta")
	}
	t := NewTree()
	for _, e := range d.Entries {
		obj, err := e.Object.Restore()
		if err != nil {
			return nil, fmt.Errorf("aida: restoring %q: %w", e.Path, err)
		}
		if err := t.PutAt(e.Path, obj); err != nil {
			return nil, err
		}
	}
	return t, nil
}
