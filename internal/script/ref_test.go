package script

import (
	"fmt"
	"io"
)

// This file keeps the original tree-walking interpreter as the reference
// oracle for the compiler: it evaluates the AST directly over map-chained
// scopes. The differential tests and FuzzScriptRun run every program on
// both and require the same output, errors, remaining fuel and globals.

// env is a lexical scope.
type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env { return &env{vars: make(map[string]Value), parent: parent} }

func (e *env) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assign updates name where it is bound, or defines it in scope e.
func (e *env) assign(name string, v Value) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
	}
	e.vars[name] = v
}

// refFunc is what a reference closure runs: the *Closure value scripts
// see carries only the name, so ToString, TypeName and == treat both
// interpreters' functions alike.
type refFunc struct {
	params []string
	body   *blockStmt
	env    *env
}

// refInterp is the tree-walking reference interpreter.
type refInterp struct {
	globals   *env
	fuel      int64
	maxDepth  int
	depth     int
	returnVal Value
	funcs     map[*Closure]*refFunc
}

func newRef(opts Options) *refInterp {
	in := &refInterp{
		globals:  newEnv(nil),
		fuel:     opts.Fuel,
		maxDepth: opts.MaxCallDepth,
		funcs:    make(map[*Closure]*refFunc),
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

func (in *refInterp) Define(name string, v Value) { in.globals.vars[name] = v }

func (in *refInterp) Lookup(name string) (Value, bool) { return in.globals.lookup(name) }

func (in *refInterp) RemainingFuel() int64 { return in.fuel }

func (in *refInterp) AddFuel(n int64) { in.fuel += n }

func (in *refInterp) Run(p *Program) error {
	for _, s := range p.stmts {
		c, err := in.exec(s, in.globals)
		if err != nil {
			return err
		}
		if c != ctrlNone {
			return &RuntimeError{Pos: s.position(), Msg: "break/continue/return outside function or loop"}
		}
	}
	return nil
}

func (in *refInterp) Call(name string, args ...Value) (Value, error) {
	fn, ok := in.globals.lookup(name)
	if !ok {
		return nil, fmt.Errorf("script: no function %q defined", name)
	}
	return in.CallValue(fn, args)
}

func (in *refInterp) Has(name string) bool {
	v, ok := in.globals.lookup(name)
	if !ok {
		return false
	}
	switch v.(type) {
	case *Closure, HostFunc:
		return true
	}
	return false
}

func (in *refInterp) CallValue(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		return in.callClosure(f, args, Pos{})
	case HostFunc:
		return f(args)
	default:
		return nil, fmt.Errorf("script: value of type %s is not callable", TypeName(fn))
	}
}

func (in *refInterp) callClosure(c *Closure, args []Value, at Pos) (Value, error) {
	if in.depth >= in.maxDepth {
		return nil, &RuntimeError{Pos: at, Msg: fmt.Sprintf("call depth exceeds %d", in.maxDepth)}
	}
	f := in.funcs[c]
	scope := newEnv(f.env)
	for i, p := range f.params {
		if i < len(args) {
			scope.vars[p] = args[i]
		} else {
			scope.vars[p] = nil
		}
	}
	in.depth++
	defer func() { in.depth-- }()
	in.returnVal = nil
	ctl, err := in.exec(f.body, scope)
	if err != nil {
		return nil, err
	}
	if ctl == ctrlReturn {
		v := in.returnVal
		in.returnVal = nil
		return v, nil
	}
	return nil, nil
}

func (in *refInterp) burn(pos Pos) error {
	in.fuel--
	if in.fuel < 0 {
		return &RuntimeError{Pos: pos, Msg: ErrFuelExhausted.Error()}
	}
	return nil
}

// exec runs a statement.
func (in *refInterp) exec(n Node, scope *env) (ctrl, error) {
	if err := in.burn(n.position()); err != nil {
		return ctrlNone, err
	}
	switch s := n.(type) {
	case *exprStmt:
		_, err := in.eval(s.x, scope)
		return ctrlNone, err
	case *blockStmt:
		for _, st := range s.stmts {
			c, err := in.exec(st, scope)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	case *ifStmt:
		cond, err := in.eval(s.cond, scope)
		if err != nil {
			return ctrlNone, err
		}
		if Truthy(cond) {
			return in.exec(s.then, scope)
		}
		if s.alt != nil {
			return in.exec(s.alt, scope)
		}
		return ctrlNone, nil
	case *whileStmt:
		for {
			cond, err := in.eval(s.cond, scope)
			if err != nil {
				return ctrlNone, err
			}
			if !Truthy(cond) {
				return ctrlNone, nil
			}
			c, err := in.exec(s.body, scope)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if err := in.burn(s.pos); err != nil {
				return ctrlNone, err
			}
		}
	case *forStmt:
		if s.init != nil {
			if _, err := in.eval(s.init, scope); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if s.cond != nil {
				cond, err := in.eval(s.cond, scope)
				if err != nil {
					return ctrlNone, err
				}
				if !Truthy(cond) {
					return ctrlNone, nil
				}
			}
			c, err := in.exec(s.body, scope)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if s.post != nil {
				if _, err := in.eval(s.post, scope); err != nil {
					return ctrlNone, err
				}
			}
			if err := in.burn(s.pos); err != nil {
				return ctrlNone, err
			}
		}
	case *forEachStmt:
		iter, err := in.eval(s.iterable, scope)
		if err != nil {
			return ctrlNone, err
		}
		runBody := func(v Value) (ctrl, error) {
			scope.assign(s.ident, v)
			return in.exec(s.body, scope)
		}
		switch it := iter.(type) {
		case *Array:
			for _, v := range it.Elems {
				c, err := runBody(v)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(s.pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		case *Map:
			for _, k := range sortedMapKeys(it) {
				c, err := runBody(k)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
			}
			return ctrlNone, nil
		case float64:
			for i := 0.0; i < it; i++ {
				c, err := runBody(i)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(s.pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		default:
			return ctrlNone, rtErr(s.pos, "cannot iterate over %s", TypeName(iter))
		}
	case *returnStmt:
		if s.val != nil {
			v, err := in.eval(s.val, scope)
			if err != nil {
				return ctrlNone, err
			}
			in.returnVal = v
		} else {
			in.returnVal = nil
		}
		return ctrlReturn, nil
	case *breakStmt:
		return ctrlBreak, nil
	case *continueStmt:
		return ctrlContinue, nil
	default:
		return ctrlNone, rtErr(n.position(), "internal: unknown statement %T", n)
	}
}

// eval computes an expression value.
func (in *refInterp) eval(n Node, scope *env) (Value, error) {
	if err := in.burn(n.position()); err != nil {
		return nil, err
	}
	switch e := n.(type) {
	case *numberLit:
		return e.val, nil
	case *stringLit:
		return e.val, nil
	case *boolLit:
		return e.val, nil
	case *nilLit:
		return nil, nil
	case *identExpr:
		v, ok := scope.lookup(e.name)
		if !ok {
			return nil, rtErr(e.pos, "undefined variable %q", e.name)
		}
		return v, nil
	case *arrayLit:
		arr := &Array{Elems: make([]Value, 0, len(e.elems))}
		for _, el := range e.elems {
			v, err := in.eval(el, scope)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *mapLit:
		m := NewMap()
		for i := range e.keys {
			k, err := in.eval(e.keys[i], scope)
			if err != nil {
				return nil, err
			}
			ks, ok := k.(string)
			if !ok {
				return nil, rtErr(e.keys[i].position(), "map key must be string, got %s", TypeName(k))
			}
			v, err := in.eval(e.vals[i], scope)
			if err != nil {
				return nil, err
			}
			m.Items[ks] = v
		}
		return m, nil
	case *funcLit:
		c := &Closure{name: e.name}
		in.funcs[c] = &refFunc{params: e.params, body: e.body, env: scope}
		return c, nil
	case *unaryExpr:
		x, err := in.eval(e.x, scope)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case tokMinus:
			f, ok := x.(float64)
			if !ok {
				return nil, rtErr(e.pos, "cannot negate %s", TypeName(x))
			}
			return -f, nil
		case tokNot:
			return !Truthy(x), nil
		}
		return nil, rtErr(e.pos, "internal: bad unary op")
	case *binaryExpr:
		return in.evalBinary(e, scope)
	case *ternaryExpr:
		cond, err := in.eval(e.cond, scope)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return in.eval(e.then, scope)
		}
		return in.eval(e.alt, scope)
	case *assignExpr:
		return in.evalAssign(e, scope)
	case *callExpr:
		return in.evalCall(e, scope)
	case *indexExpr:
		target, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.index, scope)
		if err != nil {
			return nil, err
		}
		return indexValue(e.pos, target, idx)
	case *memberExpr:
		target, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		return memberValue(e.pos, target, e.name)
	default:
		return nil, rtErr(n.position(), "internal: unknown expression %T", n)
	}
}

func (in *refInterp) evalBinary(e *binaryExpr, scope *env) (Value, error) {
	// Short-circuit logical operators.
	if e.op == tokAnd || e.op == tokOr {
		l, err := in.eval(e.l, scope)
		if err != nil {
			return nil, err
		}
		if e.op == tokAnd && !Truthy(l) {
			return false, nil
		}
		if e.op == tokOr && Truthy(l) {
			return true, nil
		}
		r, err := in.eval(e.r, scope)
		if err != nil {
			return nil, err
		}
		return Truthy(r), nil
	}
	l, err := in.eval(e.l, scope)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(e.r, scope)
	if err != nil {
		return nil, err
	}
	return applyBinary(e.pos, e.op, l, r)
}

func (in *refInterp) evalAssign(e *assignExpr, scope *env) (Value, error) {
	val, err := in.eval(e.value, scope)
	if err != nil {
		return nil, err
	}
	// Compound ops read the old value first.
	if e.op != tokAssign {
		old, err := in.eval(e.target, scope)
		if err != nil {
			return nil, err
		}
		val, err = applyBinary(e.pos, compoundOp(e.op), old, val)
		if err != nil {
			return nil, err
		}
	}
	switch t := e.target.(type) {
	case *identExpr:
		scope.assign(t.name, val)
		return val, nil
	case *indexExpr:
		target, err := in.eval(t.target, scope)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(t.index, scope)
		if err != nil {
			return nil, err
		}
		switch tv := target.(type) {
		case *Array:
			i, err := arrayIndex(t.pos, tv, idx)
			if err != nil {
				return nil, err
			}
			tv.Elems[i] = val
			return val, nil
		case *Map:
			k, ok := idx.(string)
			if !ok {
				return nil, rtErr(t.pos, "map key must be string, got %s", TypeName(idx))
			}
			tv.Items[k] = val
			return val, nil
		default:
			return nil, rtErr(t.pos, "cannot index-assign into %s", TypeName(target))
		}
	case *memberExpr:
		target, err := in.eval(t.target, scope)
		if err != nil {
			return nil, err
		}
		switch tv := target.(type) {
		case *Map:
			tv.Items[t.name] = val
			return val, nil
		case SettableHostObject:
			if err := tv.SetMember(t.name, val); err != nil {
				return nil, rtErr(t.pos, "%v", err)
			}
			return val, nil
		default:
			return nil, rtErr(t.pos, "cannot set member %q on %s", t.name, TypeName(target))
		}
	}
	return nil, rtErr(e.pos, "internal: bad assignment target")
}

func (in *refInterp) evalCall(e *callExpr, scope *env) (Value, error) {
	callee, err := in.eval(e.callee, scope)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		v, err := in.eval(a, scope)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch f := callee.(type) {
	case *Closure:
		return in.callClosure(f, args, e.pos)
	case HostFunc:
		v, err := f(args)
		if err != nil {
			if _, isRT := err.(*RuntimeError); isRT {
				return nil, err
			}
			return nil, rtErr(e.pos, "%v", err)
		}
		return v, nil
	default:
		return nil, rtErr(e.pos, "cannot call %s", TypeName(callee))
	}
}

// refRunner is the surface both interpreters share, so one test helper
// runs a program on either.
type refRunner interface {
	Define(name string, v Value)
	Lookup(name string) (Value, bool)
	RemainingFuel() int64
	AddFuel(n int64)
	Run(p *Program) error
	Call(name string, args ...Value) (Value, error)
	Has(name string) bool
}

var (
	_ refRunner = (*Interp)(nil)
	_ refRunner = (*refInterp)(nil)
	_ io.Writer = (*capWriter)(nil)
)

// capWriter captures print output up to a cap, so a fuzzed program that
// prints in a loop cannot exhaust memory through the test harness.
type capWriter struct {
	buf []byte
	max int
}

func (w *capWriter) Write(p []byte) (int, error) {
	if room := w.max - len(w.buf); room > 0 {
		if len(p) > room {
			w.buf = append(w.buf, p[:room]...)
		} else {
			w.buf = append(w.buf, p...)
		}
	}
	return len(p), nil
}
