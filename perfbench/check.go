package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
)

// momentTol is the relative tolerance on moments (means, RMS, profile
// bin means): partial sums merged from engines add in a different order
// than the serial loop. Bin entries and heights must match exactly.
const momentTol = 1e-9

// reference is the serial, in-process result of one bundle over the whole
// dataset — what the merged session result must equal.
type reference struct {
	tree   *aida.Tree
	serial time.Duration
}

// serialReference runs b single-threaded over every record of the dataset
// file at path, timing Init through End.
func serialReference(path string, b codeloader.Bundle) (*reference, error) {
	r, f, err := dataset.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := b.Instantiate(nil)
	if err != nil {
		return nil, err
	}
	ctx := &analysis.Context{Tree: aida.NewTree(), Params: b.Params, WorkerID: "serial"}
	t0 := time.Now()
	if err := a.Init(ctx); err != nil {
		return nil, err
	}
	it, err := r.Iter(0, r.NumRecords())
	if err != nil {
		return nil, err
	}
	for i := int64(0); ; i++ {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ctx.EventIndex = i
		if err := a.Process(rec, ctx); err != nil {
			return nil, fmt.Errorf("serial record %d: %w", i, err)
		}
	}
	if err := a.End(ctx); err != nil {
		return nil, err
	}
	return &reference{tree: ctx.Tree, serial: time.Since(t0)}, nil
}

// sameTree reports how got differs from want, or nil when every object
// matches: same paths and kinds, equal binning, exact bin entries and
// heights (unit-weight fills sum exactly), moments within momentTol.
func sameTree(got, want *aida.Tree) error {
	gp, wp := got.ObjectPaths(), want.ObjectPaths()
	sort.Strings(gp)
	sort.Strings(wp)
	if fmt.Sprint(gp) != fmt.Sprint(wp) {
		return fmt.Errorf("object paths %v, want %v", gp, wp)
	}
	for _, p := range wp {
		var err error
		switch w := want.Get(p).(type) {
		case *aida.Histogram1D:
			g, ok := got.Get(p).(*aida.Histogram1D)
			if !ok {
				return fmt.Errorf("%s: kind %s, want Histogram1D", p, got.Get(p).Kind())
			}
			err = sameH1D(g, w)
		case *aida.Profile1D:
			g, ok := got.Get(p).(*aida.Profile1D)
			if !ok {
				return fmt.Errorf("%s: kind %s, want Profile1D", p, got.Get(p).Kind())
			}
			err = sameP1D(g, w)
		default:
			err = fmt.Errorf("no comparison for kind %s", w.Kind())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	return nil
}

// binIndices lists every bin of an axis, flow bins included.
func binIndices(ax aida.Axis) []int {
	idx := []int{aida.Underflow, aida.Overflow}
	for i := 0; i < ax.Bins(); i++ {
		idx = append(idx, i)
	}
	return idx
}

func sameH1D(g, w *aida.Histogram1D) error {
	if g.Axis() != w.Axis() {
		return fmt.Errorf("axis %v, want %v", g.Axis(), w.Axis())
	}
	for _, i := range binIndices(w.Axis()) {
		if g.BinEntries(i) != w.BinEntries(i) || g.BinHeight(i) != w.BinHeight(i) {
			return fmt.Errorf("bin %d: %d entries height %v, want %d height %v",
				i, g.BinEntries(i), g.BinHeight(i), w.BinEntries(i), w.BinHeight(i))
		}
	}
	if !near(g.Mean(), w.Mean()) || !near(g.Rms(), w.Rms()) {
		return fmt.Errorf("mean/rms %v/%v, want %v/%v", g.Mean(), g.Rms(), w.Mean(), w.Rms())
	}
	return nil
}

func sameP1D(g, w *aida.Profile1D) error {
	if g.Axis() != w.Axis() {
		return fmt.Errorf("axis %v, want %v", g.Axis(), w.Axis())
	}
	for _, i := range binIndices(w.Axis()) {
		if g.BinEntries(i) != w.BinEntries(i) || !near(g.BinHeight(i), w.BinHeight(i)) ||
			!near(g.BinRms(i), w.BinRms(i)) {
			return fmt.Errorf("bin %d: %d entries mean %v, want %d mean %v",
				i, g.BinEntries(i), g.BinHeight(i), w.BinEntries(i), w.BinHeight(i))
		}
	}
	return nil
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= momentTol*math.Max(math.Abs(a), math.Abs(b))
}
