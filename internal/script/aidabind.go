package script

import (
	"fmt"

	"github.com/ipa-grid/ipa/internal/aida"
)

// Host-object bindings exposing AIDA to scripts. A script books and fills
// histograms through the global `tree` object, exactly as the paper's PNUTS
// analyses did through the Java AIDA API (§3.7):
//
//	h = tree.h1d("/higgs", "mass", "Dijet mass", 125, 0, 250)
//	function process(ev) { ... h.fill(m) ... }

// methods is a host object's member table, built once when the object is
// made so that reading a method allocates nothing.
type methods map[string]Value

// TreeObject wraps an aida.Tree for script access.
type TreeObject struct {
	Tree    *aida.Tree
	methods methods
}

// newTreeObject binds a tree and its booking methods for scripts.
func newTreeObject(tree *aida.Tree) *TreeObject {
	t := &TreeObject{Tree: tree}
	t.methods = methods{
		"h1d": HostFunc(func(args []Value) (Value, error) {
			dir, nm, title, bins, lo, hi, err := histArgs(args)
			if err != nil {
				return nil, fmt.Errorf("tree.h1d: %v", err)
			}
			if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Histogram1D); ok {
				return newH1DObject(existing), nil
			}
			h, err := t.Tree.H1D(dir, nm, title, bins, lo, hi)
			if err != nil {
				return nil, fmt.Errorf("tree.h1d: %v", err)
			}
			return newH1DObject(h), nil
		}),
		"h2d": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 9 {
				return nil, fmt.Errorf("tree.h2d expects (dir, name, title, nx, xlo, xhi, ny, ylo, yhi)")
			}
			dir, err1 := Str(args[0])
			nm, err2 := Str(args[1])
			title, err3 := Str(args[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("tree.h2d: dir, name, title must be strings")
			}
			var nums [6]float64
			for i := 0; i < 6; i++ {
				f, err := Number(args[3+i])
				if err != nil {
					return nil, fmt.Errorf("tree.h2d: %v", err)
				}
				nums[i] = f
			}
			nx, err := binCount(nums[0])
			if err != nil {
				return nil, fmt.Errorf("tree.h2d: %v", err)
			}
			ny, err := binCount(nums[3])
			if err != nil {
				return nil, fmt.Errorf("tree.h2d: %v", err)
			}
			if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Histogram2D); ok {
				return newH2DObject(existing), nil
			}
			h, err := t.Tree.H2D(dir, nm, title, nx, nums[1], nums[2], ny, nums[4], nums[5])
			if err != nil {
				return nil, fmt.Errorf("tree.h2d: %v", err)
			}
			return newH2DObject(h), nil
		}),
		"p1d": HostFunc(func(args []Value) (Value, error) {
			dir, nm, title, bins, lo, hi, err := histArgs(args)
			if err != nil {
				return nil, fmt.Errorf("tree.p1d: %v", err)
			}
			if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Profile1D); ok {
				return newP1DObject(existing), nil
			}
			p, err := t.Tree.P1D(dir, nm, title, bins, lo, hi)
			if err != nil {
				return nil, fmt.Errorf("tree.p1d: %v", err)
			}
			return newP1DObject(p), nil
		}),
		"c1d": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("tree.c1d expects (dir, name, title)")
			}
			dir, err1 := Str(args[0])
			nm, err2 := Str(args[1])
			title, err3 := Str(args[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("tree.c1d: arguments must be strings")
			}
			if existing, ok := t.Tree.Get(dir + "/" + nm).(*aida.Cloud1D); ok {
				return newC1DObject(existing), nil
			}
			c, err := t.Tree.C1D(dir, nm, title)
			if err != nil {
				return nil, err
			}
			return newC1DObject(c), nil
		}),
		"ls": HostFunc(func(args []Value) (Value, error) {
			path := "/"
			if len(args) == 1 {
				p, err := Str(args[0])
				if err != nil {
					return nil, err
				}
				path = p
			}
			names, err := t.Tree.Ls(path)
			if err != nil {
				return nil, err
			}
			arr := &Array{}
			for _, n := range names {
				arr.Elems = append(arr.Elems, n)
			}
			return arr, nil
		}),
	}
	return t
}

// TypeName implements HostObject.
func (t *TreeObject) TypeName() string { return "tree" }

// Member implements HostObject.
func (t *TreeObject) Member(name string) (Value, bool) {
	v, ok := t.methods[name]
	return v, ok
}

func histArgs(args []Value) (dir, name, title string, bins int, lo, hi float64, err error) {
	if len(args) != 6 {
		return "", "", "", 0, 0, 0, fmt.Errorf("expected (dir, name, title, bins, lo, hi), got %d args", len(args))
	}
	if dir, err = Str(args[0]); err != nil {
		return
	}
	if name, err = Str(args[1]); err != nil {
		return
	}
	if title, err = Str(args[2]); err != nil {
		return
	}
	var b float64
	if b, err = Number(args[3]); err != nil {
		return
	}
	if bins, err = binCount(b); err != nil {
		return
	}
	if lo, err = Number(args[4]); err != nil {
		return
	}
	hi, err = Number(args[5])
	return
}

// binCount converts a script number to a bin count, rejecting values no
// axis accepts before the integer conversion can wrap them.
func binCount(f float64) (int, error) {
	if !(f >= 1 && f <= aida.MaxBins) {
		return 0, fmt.Errorf("bin count %v outside [1, %d]", f, aida.MaxBins)
	}
	return int(f), nil
}

// H1DObject wraps a Histogram1D.
type H1DObject struct {
	H       *aida.Histogram1D
	methods methods
}

// TypeName implements HostObject.
func (h *H1DObject) TypeName() string { return "histogram1d" }

// newH1DObject binds a histogram and its methods for scripts.
func newH1DObject(obj *aida.Histogram1D) *H1DObject {
	h := &H1DObject{H: obj}
	h.methods = methods{
		"fill": HostFunc(func(args []Value) (Value, error) {
			switch len(args) {
			case 1:
				x, err := Number(args[0])
				if err != nil {
					return nil, fmt.Errorf("fill: %v", err)
				}
				h.H.Fill(x)
			case 2:
				x, err := Number(args[0])
				if err != nil {
					return nil, fmt.Errorf("fill: %v", err)
				}
				w, err := Number(args[1])
				if err != nil {
					return nil, fmt.Errorf("fill: %v", err)
				}
				h.H.FillW(x, w)
			default:
				return nil, fmt.Errorf("fill expects (x) or (x, weight)")
			}
			return nil, nil
		}),
		"mean":         HostFunc(func([]Value) (Value, error) { return h.H.Mean(), nil }),
		"rms":          HostFunc(func([]Value) (Value, error) { return h.H.Rms(), nil }),
		"entries":      HostFunc(func([]Value) (Value, error) { return float64(h.H.Entries()), nil }),
		"maxBinHeight": HostFunc(func([]Value) (Value, error) { return h.H.MaxBinHeight(), nil }),
		"binHeight": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("binHeight expects (bin)")
			}
			i, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			if int(i) < 0 || int(i) >= h.H.Axis().Bins() {
				return nil, fmt.Errorf("binHeight: bin %d out of range", int(i))
			}
			return h.H.BinHeight(int(i)), nil
		}),
		"binCenter": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("binCenter expects (bin)")
			}
			i, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			if int(i) < 0 || int(i) >= h.H.Axis().Bins() {
				return nil, fmt.Errorf("binCenter: bin %d out of range", int(i))
			}
			return h.H.Axis().BinCenter(int(i)), nil
		}),
		"bins":  HostFunc(func([]Value) (Value, error) { return float64(h.H.Axis().Bins()), nil }),
		"reset": HostFunc(func([]Value) (Value, error) { h.H.Reset(); return nil, nil }),
		"scale": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("scale expects (factor)")
			}
			f, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			h.H.Scale(f)
			return nil, nil
		}),
		"annotate": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("annotate expects (key, value)")
			}
			k, err := Str(args[0])
			if err != nil {
				return nil, err
			}
			h.H.Annotations().Set(k, ToString(args[1]))
			return nil, nil
		}),
	}
	return h
}

// Member implements HostObject.
func (h *H1DObject) Member(name string) (Value, bool) {
	v, ok := h.methods[name]
	return v, ok
}

// H2DObject wraps a Histogram2D.
type H2DObject struct {
	H       *aida.Histogram2D
	methods methods
}

// TypeName implements HostObject.
func (h *H2DObject) TypeName() string { return "histogram2d" }

// newH2DObject binds a histogram and its methods for scripts.
func newH2DObject(obj *aida.Histogram2D) *H2DObject {
	h := &H2DObject{H: obj}
	h.methods = methods{
		"fill": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 2 && len(args) != 3 {
				return nil, fmt.Errorf("fill expects (x, y) or (x, y, weight)")
			}
			x, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			y, err := Number(args[1])
			if err != nil {
				return nil, err
			}
			w := 1.0
			if len(args) == 3 {
				if w, err = Number(args[2]); err != nil {
					return nil, err
				}
			}
			h.H.FillW(x, y, w)
			return nil, nil
		}),
		"entries": HostFunc(func([]Value) (Value, error) { return float64(h.H.Entries()), nil }),
		"meanX":   HostFunc(func([]Value) (Value, error) { return h.H.MeanX(), nil }),
		"meanY":   HostFunc(func([]Value) (Value, error) { return h.H.MeanY(), nil }),
	}
	return h
}

// Member implements HostObject.
func (h *H2DObject) Member(name string) (Value, bool) {
	v, ok := h.methods[name]
	return v, ok
}

// P1DObject wraps a Profile1D.
type P1DObject struct {
	P       *aida.Profile1D
	methods methods
}

// TypeName implements HostObject.
func (p *P1DObject) TypeName() string { return "profile1d" }

// newP1DObject binds a profile and its methods for scripts.
func newP1DObject(obj *aida.Profile1D) *P1DObject {
	p := &P1DObject{P: obj}
	p.methods = methods{
		"fill": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("fill expects (x, y)")
			}
			x, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			y, err := Number(args[1])
			if err != nil {
				return nil, err
			}
			p.P.Fill(x, y)
			return nil, nil
		}),
		"entries": HostFunc(func([]Value) (Value, error) { return float64(p.P.Entries()), nil }),
	}
	return p
}

// Member implements HostObject.
func (p *P1DObject) Member(name string) (Value, bool) {
	v, ok := p.methods[name]
	return v, ok
}

// C1DObject wraps a Cloud1D.
type C1DObject struct {
	C       *aida.Cloud1D
	methods methods
}

// TypeName implements HostObject.
func (c *C1DObject) TypeName() string { return "cloud1d" }

// newC1DObject binds a cloud and its methods for scripts.
func newC1DObject(obj *aida.Cloud1D) *C1DObject {
	c := &C1DObject{C: obj}
	c.methods = methods{
		"fill": HostFunc(func(args []Value) (Value, error) {
			if len(args) != 1 && len(args) != 2 {
				return nil, fmt.Errorf("fill expects (x) or (x, weight)")
			}
			x, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			w := 1.0
			if len(args) == 2 {
				if w, err = Number(args[1]); err != nil {
					return nil, err
				}
			}
			c.C.FillW(x, w)
			return nil, nil
		}),
		"mean":    HostFunc(func([]Value) (Value, error) { return c.C.Mean(), nil }),
		"rms":     HostFunc(func([]Value) (Value, error) { return c.C.Rms(), nil }),
		"entries": HostFunc(func([]Value) (Value, error) { return float64(c.C.Entries()), nil }),
	}
	return c
}

// Member implements HostObject.
func (c *C1DObject) Member(name string) (Value, bool) {
	v, ok := c.methods[name]
	return v, ok
}
