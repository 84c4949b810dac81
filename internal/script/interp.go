package script

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// RuntimeError is a script execution failure with its source position.
type RuntimeError struct {
	Pos Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("script:%s: %s", e.Pos, e.Msg) }

// ErrFuelExhausted aborts scripts that exceed their execution budget — the
// guard that keeps a runaway uploaded script from wedging a worker node.
var ErrFuelExhausted = errors.New("script: execution budget exhausted")

// control-flow signals threaded through statement execution.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// Options configure an interpreter.
type Options struct {
	// Fuel bounds the number of AST evaluations (0 = DefaultFuel).
	Fuel int64
	// Output receives print()/println() text (nil = discard).
	Output io.Writer
	// MaxCallDepth bounds recursion (0 = 256).
	MaxCallDepth int
}

// DefaultFuel is generous enough for per-event analysis over large staged
// parts while still halting accidental infinite loops in bounded time.
const DefaultFuel = 200_000_000

// Interp runs compiled programs. Globals live in cells shared by every
// program the interpreter runs; function locals live in frame slots that
// are reused call after call, so a call allocates nothing unless the
// function has variables captured by a nested function.
type Interp struct {
	globals  map[string]*slot
	linked   map[*Program][]*slot
	fuel     int64
	maxDepth int
	depth    int
	// frames[d] is the frame reused by calls at depth d.
	frames []*frame
	// args is a stack of evaluated call arguments, so closure calls pass
	// numbers without boxing them.
	args []slot
}

// New creates an interpreter with the standard library installed.
func New(opts Options) *Interp {
	in := &Interp{
		globals:  make(map[string]*slot),
		linked:   make(map[*Program][]*slot),
		fuel:     opts.Fuel,
		maxDepth: opts.MaxCallDepth,
		args:     make([]slot, 0, 16),
	}
	if in.fuel <= 0 {
		in.fuel = DefaultFuel
	}
	if in.maxDepth <= 0 {
		in.maxDepth = 256
	}
	installBuiltins(in.Define, opts.Output)
	return in
}

// cell returns the global cell for name, creating it unbound.
func (in *Interp) cell(name string) *slot {
	c, ok := in.globals[name]
	if !ok {
		c = &slot{v: unboundV}
		in.globals[name] = c
	}
	return c
}

// Define binds a global name (host objects, configuration values).
func (in *Interp) Define(name string, v Value) {
	c := in.cell(name)
	c.n, c.v = unbox(v)
}

// Lookup fetches a global.
func (in *Interp) Lookup(name string) (Value, bool) {
	c, ok := in.globals[name]
	if !ok || isUnbound(c.v) {
		return nil, false
	}
	return box(c.n, c.v), true
}

// RemainingFuel returns the unspent execution budget.
func (in *Interp) RemainingFuel() int64 { return in.fuel }

// AddFuel extends the execution budget (the engine tops fuel up per event
// so long datasets don't starve, while any single event stays bounded).
func (in *Interp) AddFuel(n int64) { in.fuel += n }

// link resolves a program's global names to this interpreter's cells.
func (in *Interp) link(p *Program) []*slot {
	if g, ok := in.linked[p]; ok {
		return g
	}
	g := make([]*slot, len(p.globals))
	for i, name := range p.globals {
		g[i] = in.cell(name)
	}
	in.linked[p] = g
	return g
}

// Run executes a program's top-level statements in the global scope.
func (in *Interp) Run(p *Program) error {
	fr := &frame{in: in, glob: in.link(p)}
	for i, s := range p.top {
		c, err := s(fr)
		if err != nil {
			return err
		}
		if c != ctrlNone {
			return &RuntimeError{Pos: p.stmts[i].position(), Msg: "break/continue/return outside function or loop"}
		}
	}
	return nil
}

// Call invokes a named global function with the given arguments.
func (in *Interp) Call(name string, args ...Value) (Value, error) {
	fn, ok := in.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("script: no function %q defined", name)
	}
	return in.CallValue(fn, args)
}

// Has reports whether a global name is bound to a callable.
func (in *Interp) Has(name string) bool {
	c, ok := in.globals[name]
	if !ok {
		return false
	}
	switch c.v.(type) {
	case *Closure, HostFunc:
		return true
	}
	return false
}

// CallValue invokes a function value.
func (in *Interp) CallValue(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		base := len(in.args)
		for _, a := range args {
			n, v := unbox(a)
			in.args = append(in.args, slot{n, v})
		}
		n, v, err := in.callClosure(f, in.args[base:], Pos{})
		in.args = in.args[:base]
		if err != nil {
			return nil, err
		}
		return box(n, v), nil
	case HostFunc:
		// A copy keeps args from escaping, so a caller's argument list
		// for a script function stays on its stack.
		return f(append([]Value(nil), args...))
	default:
		return nil, fmt.Errorf("script: value of type %s is not callable", TypeName(fn))
	}
}

// callClosure runs a script function at the current depth. Missing
// arguments bind to nil and extra ones are ignored.
func (in *Interp) callClosure(c *Closure, args []slot, at Pos) (float64, Value, error) {
	if in.depth >= in.maxDepth {
		return 0, nil, &RuntimeError{Pos: at, Msg: fmt.Sprintf("call depth exceeds %d", in.maxDepth)}
	}
	fn := c.fn
	if in.depth == len(in.frames) {
		in.frames = append(in.frames, &frame{in: in})
	}
	fr := in.frames[in.depth]
	fr.env, fr.glob, fr.own = c.env, c.glob, nil
	if cap(fr.slots) < fn.nslots {
		fr.slots = make([]slot, fn.nslots)
	}
	fr.slots = fr.slots[:fn.nslots]
	for i := range fr.slots {
		fr.slots[i] = slot{v: unboundV}
	}
	if fn.ncells > 0 {
		fr.own = &scope{cells: make([]slot, fn.ncells), up: c.env}
		for i := range fr.own.cells {
			fr.own.cells[i].v = unboundV
		}
	}
	for i, p := range fn.params {
		var s slot
		if i < len(args) {
			s = args[i]
		}
		if p.cell {
			fr.own.cells[p.idx] = s
		} else {
			fr.slots[p.idx] = s
		}
	}
	in.depth++
	defer func() { in.depth-- }()
	ctl, err := fn.body(fr)
	if err != nil {
		return 0, nil, err
	}
	if ctl == ctrlReturn {
		n, v := fr.retN, fr.retV
		fr.retV = nil
		return n, v, nil
	}
	return 0, nil, nil
}

func (in *Interp) burn(pos Pos) error {
	in.fuel--
	if in.fuel < 0 {
		return fuelError(pos)
	}
	return nil
}

// fuelError is kept out of line so burn stays small enough to inline.
//
//go:noinline
func fuelError(pos Pos) error {
	return &RuntimeError{Pos: pos, Msg: ErrFuelExhausted.Error()}
}

func rtErr(pos Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// compoundOp maps a compound assignment to its binary operator.
func compoundOp(op tokKind) tokKind {
	switch op {
	case tokPlusAssign:
		return tokPlus
	case tokMinusAssign:
		return tokMinus
	case tokStarAssign:
		return tokStar
	case tokSlashAssign:
		return tokSlash
	}
	return 0
}

// maxConcatBytes and maxConcatElems bound the result of string and array
// concatenation. Fuel bounds steps, not memory: without them, a loop
// doubling a string would exhaust the worker's memory in a few dozen
// iterations.
const (
	maxConcatBytes = 1 << 24
	maxConcatElems = 1 << 20
)

func applyBinary(pos Pos, op tokKind, l, r Value) (Value, error) {
	switch op {
	case tokEq:
		return valuesEqual(l, r), nil
	case tokNe:
		return !valuesEqual(l, r), nil
	}
	// String concatenation and comparison.
	if ls, ok := l.(string); ok {
		switch op {
		case tokPlus:
			return concatStrings(pos, ls, ToString(r))
		case tokLt, tokLe, tokGt, tokGe:
			rs, ok := r.(string)
			if !ok {
				return nil, rtErr(pos, "cannot compare string with %s", TypeName(r))
			}
			switch op {
			case tokLt:
				return ls < rs, nil
			case tokLe:
				return ls <= rs, nil
			case tokGt:
				return ls > rs, nil
			default:
				return ls >= rs, nil
			}
		}
	}
	// number + string → concatenation (PNUTS-style convenience).
	if rs, ok := r.(string); ok && op == tokPlus {
		return concatStrings(pos, ToString(l), rs)
	}
	// Array concatenation.
	if la, ok := l.(*Array); ok && op == tokPlus {
		if ra, ok := r.(*Array); ok {
			n := len(la.Elems) + len(ra.Elems)
			if n > maxConcatElems {
				return nil, rtErr(pos, "array of %d elements exceeds the %d-element limit", n, maxConcatElems)
			}
			out := &Array{Elems: make([]Value, 0, n)}
			out.Elems = append(out.Elems, la.Elems...)
			out.Elems = append(out.Elems, ra.Elems...)
			return out, nil
		}
	}
	lf, lok := l.(float64)
	rf, rok := r.(float64)
	if !lok || !rok {
		return nil, rtErr(pos, "operator %v not defined for %s and %s", op, TypeName(l), TypeName(r))
	}
	f, b, isBool, err := arith(pos, op, lf, rf)
	if err != nil {
		return nil, err
	}
	if isBool {
		return b, nil
	}
	return f, nil
}

func concatStrings(pos Pos, a, b string) (Value, error) {
	if n := len(a) + len(b); n > maxConcatBytes {
		return nil, rtErr(pos, "string of %d bytes exceeds the %d-byte limit", n, maxConcatBytes)
	}
	return a + b, nil
}

// arith applies an arithmetic or ordering operator to two numbers; ordering
// operators report their result in b with isBool set.
func arith(pos Pos, op tokKind, lf, rf float64) (f float64, b, isBool bool, err error) {
	switch op {
	case tokPlus:
		return lf + rf, false, false, nil
	case tokMinus:
		return lf - rf, false, false, nil
	case tokStar:
		return lf * rf, false, false, nil
	case tokSlash:
		if rf == 0 {
			return 0, false, false, rtErr(pos, "division by zero")
		}
		return lf / rf, false, false, nil
	case tokPercent:
		if rf == 0 {
			return 0, false, false, rtErr(pos, "modulo by zero")
		}
		return math.Mod(lf, rf), false, false, nil
	case tokLt:
		return 0, lf < rf, true, nil
	case tokLe:
		return 0, lf <= rf, true, nil
	case tokGt:
		return 0, lf > rf, true, nil
	case tokGe:
		return 0, lf >= rf, true, nil
	}
	return 0, false, false, rtErr(pos, "internal: bad binary op %v", op)
}

func arrayIndex(pos Pos, a *Array, idx Value) (int, error) {
	f, ok := idx.(float64)
	if !ok {
		return 0, rtErr(pos, "array index must be number, got %s", TypeName(idx))
	}
	return arrayIndexNum(pos, a, f)
}

func arrayIndexNum(pos Pos, a *Array, f float64) (int, error) {
	i := int(f)
	if float64(i) != f {
		return 0, rtErr(pos, "array index %v is not an integer", f)
	}
	if i < 0 || i >= len(a.Elems) {
		return 0, rtErr(pos, "array index %d out of range [0,%d)", i, len(a.Elems))
	}
	return i, nil
}

func indexValue(pos Pos, target, idx Value) (Value, error) {
	switch t := target.(type) {
	case *Array:
		i, err := arrayIndex(pos, t, idx)
		if err != nil {
			return nil, err
		}
		return t.Elems[i], nil
	case *Map:
		k, ok := idx.(string)
		if !ok {
			return nil, rtErr(pos, "map key must be string, got %s", TypeName(idx))
		}
		return t.Items[k], nil
	case string:
		f, ok := idx.(float64)
		if !ok {
			return nil, rtErr(pos, "string index must be number")
		}
		i := int(f)
		if i < 0 || i >= len(t) {
			return nil, rtErr(pos, "string index %d out of range", i)
		}
		return string(t[i]), nil
	default:
		return nil, rtErr(pos, "cannot index %s", TypeName(target))
	}
}

func memberValue(pos Pos, target Value, name string) (Value, error) {
	switch t := target.(type) {
	case *Map:
		return t.Items[name], nil
	case HostObject:
		v, ok := t.Member(name)
		if !ok {
			return nil, rtErr(pos, "%s has no member %q", t.TypeName(), name)
		}
		return v, nil
	case *Array:
		if name == "length" {
			return float64(len(t.Elems)), nil
		}
		return nil, rtErr(pos, "array has no member %q", name)
	case string:
		if name == "length" {
			return float64(len(t)), nil
		}
		return nil, rtErr(pos, "string has no member %q", name)
	default:
		return nil, rtErr(pos, "%s has no members", TypeName(target))
	}
}

func sortedMapKeys(m *Map) []Value {
	keys := make([]string, 0, len(m.Items))
	for k := range m.Items {
		keys = append(keys, k)
	}
	// Deterministic iteration for reproducible analyses.
	sort.Strings(keys)
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = k
	}
	return out
}
