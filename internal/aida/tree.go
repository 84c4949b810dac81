package aida

import (
	"fmt"
	"sort"
	"strings"
)

// Tree is the hierarchical container of analysis objects (AIDA ITree).
// Engines create objects under paths like "/higgs/dijet-mass"; the AIDA
// manager merges whole worker trees into the session tree; the client
// browses the merged tree exactly like the JAS3 object browser of Figure 4.
//
// A Tree is not safe for concurrent use; callers that share one (the merge
// service) must synchronise.
type Tree struct {
	root *dir
	// snapped holds the object paths included in the last delta snapshot
	// (nil until the first Delta/FullDelta call — see delta.go).
	snapped map[string]struct{}
}

type dir struct {
	name     string
	children map[string]*dir
	objects  map[string]Object
}

func newDir(name string) *dir {
	return &dir{name: name, children: make(map[string]*dir), objects: make(map[string]Object)}
}

// NewTree returns an empty tree.
func NewTree() *Tree { return &Tree{root: newDir("")} }

// splitPath normalizes "/a/b/c" into segments; empty segments collapse.
func splitPath(path string) []string {
	parts := strings.Split(path, "/")
	segs := parts[:0]
	for _, p := range parts {
		if p != "" && p != "." {
			segs = append(segs, p)
		}
	}
	return segs
}

// JoinPath builds a canonical absolute path from segments.
func JoinPath(segs ...string) string { return "/" + strings.Join(segs, "/") }

// Mkdirs creates the directory path (and parents), returning an error only
// if a path segment is occupied by an object.
func (t *Tree) Mkdirs(path string) error {
	_, err := t.mkdirs(splitPath(path))
	return err
}

func (t *Tree) mkdirs(segs []string) (*dir, error) {
	d := t.root
	for _, s := range segs {
		if _, isObj := d.objects[s]; isObj {
			return nil, fmt.Errorf("aida: %q is an object, not a directory", s)
		}
		next := d.children[s]
		if next == nil {
			next = newDir(s)
			d.children[s] = next
		}
		d = next
	}
	return d, nil
}

func (t *Tree) lookupDir(segs []string) (*dir, bool) {
	d := t.root
	for _, s := range segs {
		next := d.children[s]
		if next == nil {
			return nil, false
		}
		d = next
	}
	return d, true
}

// Put stores obj at the directory path dir (created if needed) under the
// object's own name.
func (t *Tree) Put(dirPath string, obj Object) error {
	if obj == nil {
		return fmt.Errorf("aida: Put nil object at %q", dirPath)
	}
	if obj.Name() == "" || strings.Contains(obj.Name(), "/") {
		return fmt.Errorf("aida: invalid object name %q", obj.Name())
	}
	d, err := t.mkdirs(splitPath(dirPath))
	if err != nil {
		return err
	}
	if _, isDir := d.children[obj.Name()]; isDir {
		return fmt.Errorf("aida: %q is a directory", obj.Name())
	}
	d.objects[obj.Name()] = obj
	return nil
}

// PutAt stores obj at the full object path (directory part + leaf name must
// equal the object's name).
func (t *Tree) PutAt(objPath string, obj Object) error {
	segs := splitPath(objPath)
	if len(segs) == 0 {
		return fmt.Errorf("aida: empty object path")
	}
	leaf := segs[len(segs)-1]
	if leaf != obj.Name() {
		return fmt.Errorf("aida: path leaf %q != object name %q", leaf, obj.Name())
	}
	return t.Put(JoinPath(segs[:len(segs)-1]...), obj)
}

// Get returns the object at the full path, or nil.
func (t *Tree) Get(objPath string) Object {
	segs := splitPath(objPath)
	if len(segs) == 0 {
		return nil
	}
	d, ok := t.lookupDir(segs[:len(segs)-1])
	if !ok {
		return nil
	}
	return d.objects[segs[len(segs)-1]]
}

// Rm removes the object at the full path; it reports whether it existed.
func (t *Tree) Rm(objPath string) bool {
	segs := splitPath(objPath)
	if len(segs) == 0 {
		return false
	}
	d, ok := t.lookupDir(segs[:len(segs)-1])
	if !ok {
		return false
	}
	if _, ok := d.objects[segs[len(segs)-1]]; !ok {
		return false
	}
	delete(d.objects, segs[len(segs)-1])
	return true
}

// RmDir removes an entire directory subtree; it reports whether it existed.
func (t *Tree) RmDir(path string) bool {
	segs := splitPath(path)
	if len(segs) == 0 {
		// Clearing the root.
		t.root = newDir("")
		return true
	}
	parent, ok := t.lookupDir(segs[:len(segs)-1])
	if !ok {
		return false
	}
	if _, ok := parent.children[segs[len(segs)-1]]; !ok {
		return false
	}
	delete(parent.children, segs[len(segs)-1])
	return true
}

// Ls lists the immediate entries of a directory: sub-directory names get a
// trailing "/", object names are bare. Sorted.
func (t *Tree) Ls(path string) ([]string, error) {
	d, ok := t.lookupDir(splitPath(path))
	if !ok {
		return nil, fmt.Errorf("aida: no directory %q", path)
	}
	out := make([]string, 0, len(d.children)+len(d.objects))
	for name := range d.children {
		out = append(out, name+"/")
	}
	for name := range d.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// ObjectPaths returns every object path in the tree, sorted.
func (t *Tree) ObjectPaths() []string {
	var out []string
	t.walk(t.root, nil, func(path []string, obj Object) {
		out = append(out, JoinPath(append(append([]string{}, path...), obj.Name())...))
	})
	sort.Strings(out)
	return out
}

// Walk visits every object with its full path, in sorted order.
func (t *Tree) Walk(fn func(path string, obj Object)) {
	for _, p := range t.ObjectPaths() {
		fn(p, t.Get(p))
	}
}

func (t *Tree) walk(d *dir, path []string, fn func(path []string, obj Object)) {
	for _, name := range sortedKeys(d.objects) {
		fn(path, d.objects[name])
	}
	for _, name := range sortedKeys(d.children) {
		t.walk(d.children[name], append(path, name), fn)
	}
}

// Size returns the total object count.
func (t *Tree) Size() int {
	n := 0
	t.walk(t.root, nil, func([]string, Object) { n++ })
	return n
}

// MergeFrom merges every object of src into t: objects at paths that exist
// in both trees are merged (via Mergeable); new paths are deep-copied in.
// This implements the AIDA manager's collect step (§3.7).
func (t *Tree) MergeFrom(src *Tree) error {
	var firstErr error
	src.Walk(func(path string, obj Object) {
		if firstErr != nil {
			return
		}
		existing := t.Get(path)
		if existing == nil {
			segs := splitPath(path)
			cp, err := CloneObject(obj)
			if err != nil {
				firstErr = fmt.Errorf("aida: merging %q: %w", path, err)
				return
			}
			if err := t.Put(JoinPath(segs[:len(segs)-1]...), cp); err != nil {
				firstErr = err
			}
			return
		}
		m, ok := existing.(Mergeable)
		if !ok {
			firstErr = fmt.Errorf("aida: object %q (%s) is not mergeable", path, existing.Kind())
			return
		}
		if err := m.MergeFrom(obj); err != nil {
			firstErr = fmt.Errorf("aida: merging %q: %w", path, err)
		}
	})
	return firstErr
}

// Clone returns a deep copy of the whole tree.
func (t *Tree) Clone() (*Tree, error) {
	c := NewTree()
	var firstErr error
	t.Walk(func(path string, obj Object) {
		if firstErr != nil {
			return
		}
		cp, err := CloneObject(obj)
		if err != nil {
			firstErr = err
			return
		}
		segs := splitPath(path)
		if err := c.Put(JoinPath(segs[:len(segs)-1]...), cp); err != nil {
			firstErr = err
		}
	})
	return c, firstErr
}

// CloneObject deep-copies any known AIDA object.
func CloneObject(obj Object) (Object, error) {
	switch o := obj.(type) {
	case *Histogram1D:
		return o.Clone(), nil
	case *Histogram2D:
		return o.Clone(), nil
	case *Profile1D:
		return o.Clone(), nil
	case *Cloud1D:
		return o.Clone(), nil
	case *Cloud2D:
		return o.Clone(), nil
	case *DataPointSet:
		return o.Clone(), nil
	default:
		return nil, fmt.Errorf("aida: cannot clone object of kind %s", obj.Kind())
	}
}

// Factory-style helpers mirroring AIDA's IHistogramFactory: create the
// object, store it at dirPath, and return it for filling.

// H1D creates a Histogram1D under dirPath. Invalid binning (see CheckAxis)
// is an error.
func (t *Tree) H1D(dirPath, name, title string, bins int, lo, hi float64) (*Histogram1D, error) {
	if err := CheckAxis(bins, lo, hi); err != nil {
		return nil, err
	}
	h := NewHistogram1D(name, title, bins, lo, hi)
	if err := t.Put(dirPath, h); err != nil {
		return nil, err
	}
	return h, nil
}

// H2D creates a Histogram2D under dirPath. Invalid binning (see CheckAxis)
// is an error.
func (t *Tree) H2D(dirPath, name, title string, nx int, xlo, xhi float64, ny int, ylo, yhi float64) (*Histogram2D, error) {
	if err := CheckAxis(nx, xlo, xhi); err != nil {
		return nil, err
	}
	if err := CheckAxis(ny, ylo, yhi); err != nil {
		return nil, err
	}
	if nx*ny > MaxBins {
		return nil, fmt.Errorf("aida: %d×%d bins exceed the %d-bin limit", nx, ny, MaxBins)
	}
	h := NewHistogram2D(name, title, nx, xlo, xhi, ny, ylo, yhi)
	if err := t.Put(dirPath, h); err != nil {
		return nil, err
	}
	return h, nil
}

// P1D creates a Profile1D under dirPath. Invalid binning (see CheckAxis)
// is an error.
func (t *Tree) P1D(dirPath, name, title string, bins int, lo, hi float64) (*Profile1D, error) {
	if err := CheckAxis(bins, lo, hi); err != nil {
		return nil, err
	}
	p := NewProfile1D(name, title, bins, lo, hi)
	if err := t.Put(dirPath, p); err != nil {
		return nil, err
	}
	return p, nil
}

// C1D creates a Cloud1D under dirPath.
func (t *Tree) C1D(dirPath, name, title string) (*Cloud1D, error) {
	c := NewCloud1D(name, title)
	if err := t.Put(dirPath, c); err != nil {
		return nil, err
	}
	return c, nil
}

// DPS creates a DataPointSet under dirPath.
func (t *Tree) DPS(dirPath, name, title string, dim int) (*DataPointSet, error) {
	d := NewDataPointSet(name, title, dim)
	if err := t.Put(dirPath, d); err != nil {
		return nil, err
	}
	return d, nil
}
