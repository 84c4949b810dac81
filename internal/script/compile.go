package script

import "math"

// The compiler turns the AST into a tree of Go closures. Every identifier
// is resolved before the program runs: to a slot in its function's frame,
// to a cell shared with nested functions that capture it, or to a global
// cell. Expression closures return numbers unboxed, and frame slots hold
// them unboxed, so arithmetic on locals allocates nothing; a number is
// boxed only where it escapes into an array, a map, a host call or a
// value handed back to Go.
//
// The language's scoping is dynamic in one respect, and the compiler keeps
// it exactly: variables are function-scoped, and an assignment updates the
// nearest enclosing scope where the name is already bound, else defines a
// local. A name a function assigns may therefore land in the function, in
// an enclosing function or in the globals depending on what is bound when
// the assignment runs; such names resolve through a bound check along
// their chain of candidate scopes instead of a guess.
//
// Fuel burns exactly as in a walk of the AST: once when each statement or
// expression node is entered (pre-order), plus once at the end of every
// loop iteration (except iterations over a map's keys).

// slot holds one variable or one expression result. v is numV when the
// value is the number n, unboundV when a variable has no binding yet, and
// the value itself otherwise (never a float64).
type slot struct {
	n float64
	v Value
}

type numMarker struct{ _ byte }
type unboundMarker struct{ _ byte }

var (
	numV     Value = &numMarker{}
	unboundV Value = &unboundMarker{}
	trueV    Value = true
	falseV   Value = false
)

func isNum(v Value) bool {
	_, ok := v.(*numMarker)
	return ok
}

func isUnbound(v Value) bool {
	_, ok := v.(*unboundMarker)
	return ok
}

// box turns an expression result into a Value.
func box(n float64, v Value) Value {
	if isNum(v) {
		return boxNum(n)
	}
	return v
}

// smallNums holds the boxed integers 0..255, so boxing a count or an
// index allocates nothing.
var smallNums = func() (t [256]Value) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

func boxNum(n float64) Value {
	if i := int(n); i >= 0 && i < len(smallNums) && float64(i) == n && !math.Signbit(n) {
		return smallNums[i]
	}
	return n
}

// unbox turns a Value into an expression result.
func unbox(v Value) (float64, Value) {
	if f, ok := v.(float64); ok {
		return f, numV
	}
	return 0, v
}

func boolV(b bool) Value {
	if b {
		return trueV
	}
	return falseV
}

func truthy(n float64, v Value) bool {
	if isNum(v) {
		return n != 0 && !math.IsNaN(n)
	}
	return Truthy(v)
}

// equalResults implements == on expression results.
func equalResults(ln float64, lv Value, rn float64, rv Value) bool {
	if isNum(lv) {
		return isNum(rv) && ln == rn
	}
	if isNum(rv) {
		return false
	}
	return valuesEqual(lv, rv)
}

// scope holds one call's captured variables.
type scope struct {
	cells []slot
	up    *scope
}

// frame is the state of one running function: its slots, its captured
// cells, the captured cells of the functions around it and the globals of
// the program it came from.
type frame struct {
	in    *Interp
	slots []slot
	own   *scope
	env   *scope
	glob  []*slot
	retN  float64
	retV  Value
}

type (
	exprFn func(fr *frame) (float64, Value, error)
	condFn func(fr *frame) (bool, error)
	stmtFn func(fr *frame) (ctrl, error)
	// storeFn assigns an expression result to a variable.
	storeFn func(fr *frame, n float64, v Value)
	// locFn finds a variable's storage in a running frame.
	locFn func(fr *frame) *slot
)

// Closure is a script function bound to the variables it captured.
type Closure struct {
	name string
	fn   *funcCode
	env  *scope
	glob []*slot
}

// Name returns the function's declared name ("" for anonymous).
func (c *Closure) Name() string { return c.name }

// funcCode is a compiled function.
type funcCode struct {
	params []varLoc
	nslots int
	ncells int
	body   stmtFn
}

// varLoc places a function's own variable in its frame.
type varLoc struct {
	cell bool
	idx  int
}

// Compile-time structures.

// fnInfo describes one function (or the top level) during compilation.
type fnInfo struct {
	parent *fnInfo
	top    bool
	vars   map[string]*varInfo
	order  []*varInfo
	nslots int
	ncells int
}

// varInfo is a variable a function owns: a parameter, or a name the
// function assigns or iterates with.
type varInfo struct {
	param    bool
	captured bool
	loc      varLoc
}

func (f *fnInfo) own(name string, param bool) {
	if f.top {
		return
	}
	if _, ok := f.vars[name]; ok {
		return
	}
	v := &varInfo{param: param}
	f.vars[name] = v
	f.order = append(f.order, v)
}

type compiler struct {
	globals map[string]int
	names   []string
	fns     map[*funcLit]*fnInfo
}

func (c *compiler) global(name string) int {
	if i, ok := c.globals[name]; ok {
		return i
	}
	i := len(c.names)
	c.globals[name] = i
	c.names = append(c.names, name)
	return i
}

// compileProgram resolves and compiles parsed top-level statements.
func compileProgram(stmts []Node) (top []stmtFn, globals []string) {
	c := &compiler{globals: make(map[string]int), fns: make(map[*funcLit]*fnInfo)}
	root := &fnInfo{top: true}
	for _, s := range stmts {
		c.declare(root, s)
	}
	for _, s := range stmts {
		c.capture(root, s)
	}
	for _, f := range c.fns {
		f.layout()
	}
	top = make([]stmtFn, len(stmts))
	for i, s := range stmts {
		top[i] = c.stmt(root, s)
	}
	return top, c.names
}

// declare records, for every function, the names it owns.
func (c *compiler) declare(f *fnInfo, n Node) {
	walk(n, func(n Node) bool {
		switch e := n.(type) {
		case *assignExpr:
			if id, ok := e.target.(*identExpr); ok {
				f.own(id.name, false)
			}
		case *forEachStmt:
			f.own(e.ident, false)
		case *funcLit:
			g := &fnInfo{parent: f, vars: make(map[string]*varInfo)}
			for _, p := range e.params {
				g.own(p, true)
			}
			c.fns[e] = g
			c.declare(g, e.body)
			return false
		}
		return true
	})
}

// capture marks variables that nested functions refer to.
func (c *compiler) capture(f *fnInfo, n Node) {
	mark := func(name string) {
		for g := f.parent; g != nil && !g.top; g = g.parent {
			if v, ok := g.vars[name]; ok {
				v.captured = true
				if v.param {
					return
				}
			}
		}
	}
	walk(n, func(n Node) bool {
		switch e := n.(type) {
		case *identExpr:
			if v, ok := f.vars[e.name]; !ok || !v.param {
				mark(e.name)
			}
		case *forEachStmt:
			if v, ok := f.vars[e.ident]; !ok || !v.param {
				mark(e.ident)
			}
		case *funcLit:
			c.capture(c.fns[e], e.body)
			return false
		}
		return true
	})
}

func (f *fnInfo) layout() {
	for _, v := range f.order {
		if v.captured {
			v.loc = varLoc{cell: true, idx: f.ncells}
			f.ncells++
		} else {
			v.loc = varLoc{idx: f.nslots}
			f.nslots++
		}
	}
}

// walk visits n and its descendants in pre-order; visit returns false to
// skip a node's children.
func walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	switch e := n.(type) {
	case *arrayLit:
		for _, x := range e.elems {
			walk(x, visit)
		}
	case *mapLit:
		for i := range e.keys {
			walk(e.keys[i], visit)
			walk(e.vals[i], visit)
		}
	case *unaryExpr:
		walk(e.x, visit)
	case *binaryExpr:
		walk(e.l, visit)
		walk(e.r, visit)
	case *ternaryExpr:
		walk(e.cond, visit)
		walk(e.then, visit)
		walk(e.alt, visit)
	case *callExpr:
		walk(e.callee, visit)
		for _, a := range e.args {
			walk(a, visit)
		}
	case *indexExpr:
		walk(e.target, visit)
		walk(e.index, visit)
	case *memberExpr:
		walk(e.target, visit)
	case *funcLit:
		walk(e.body, visit)
	case *assignExpr:
		walk(e.target, visit)
		walk(e.value, visit)
	case *exprStmt:
		walk(e.x, visit)
	case *blockStmt:
		for _, s := range e.stmts {
			walk(s, visit)
		}
	case *ifStmt:
		walk(e.cond, visit)
		walk(e.then, visit)
		walk(e.alt, visit)
	case *whileStmt:
		walk(e.cond, visit)
		walk(e.body, visit)
	case *forStmt:
		walk(e.init, visit)
		walk(e.cond, visit)
		walk(e.post, visit)
		walk(e.body, visit)
	case *forEachStmt:
		walk(e.iterable, visit)
		walk(e.body, visit)
	case *returnStmt:
		walk(e.val, visit)
	}
}

// Variable access.

// binding is one candidate scope for a name: a variable of the running
// function or of an enclosing one, or a global cell.
type binding struct {
	loc    locFn
	always bool // a parameter: bound from the call's start
	global int  // the global cell's index, or -1
}

// chain lists, nearest first, the scopes a name can be bound in when f's
// code runs. It ends at the first parameter, or at the global cell.
func (c *compiler) chain(f *fnInfo, name string) []binding {
	var out []binding
	hops := 0
	for g := f; g != nil && !g.top; g = g.parent {
		if v, ok := g.vars[name]; ok {
			out = append(out, binding{loc: c.locate(f, g, v, hops), always: v.param, global: -1})
			if v.param {
				return out
			}
		}
		if g != f && g.ncells > 0 {
			hops++
		}
	}
	gi := c.global(name)
	return append(out, binding{loc: func(fr *frame) *slot { return fr.glob[gi] }, global: gi})
}

// locate finds variable v of function owner from code running in f.
func (c *compiler) locate(f, owner *fnInfo, v *varInfo, hops int) locFn {
	idx := v.loc.idx
	switch {
	case owner == f && !v.loc.cell:
		return func(fr *frame) *slot { return &fr.slots[idx] }
	case owner == f:
		return func(fr *frame) *slot { return &fr.own.cells[idx] }
	case hops == 0:
		return func(fr *frame) *slot { return &fr.env.cells[idx] }
	}
	return func(fr *frame) *slot {
		s := fr.env
		for i := 0; i < hops; i++ {
			s = s.up
		}
		return &s.cells[idx]
	}
}

// ownSlot reports the frame slot of a variable f owns that no nested
// function captures.
func ownSlot(f *fnInfo, name string) (int, bool) {
	if f.top {
		return 0, false
	}
	v, ok := f.vars[name]
	if !ok || v.loc.cell {
		return 0, false
	}
	return v.loc.idx, true
}

// read compiles a variable read.
func (c *compiler) read(f *fnInfo, e *identExpr) exprFn {
	name, pos := e.name, e.pos
	undefined := func() (float64, Value, error) {
		return 0, nil, rtErr(pos, "undefined variable %q", name)
	}
	ch := c.chain(f, name)
	if i, ok := ownSlot(f, name); ok {
		if ch[0].always {
			return func(fr *frame) (float64, Value, error) {
				if err := fr.in.burn(pos); err != nil {
					return 0, nil, err
				}
				s := &fr.slots[i]
				return s.n, s.v, nil
			}
		}
		if len(ch) == 2 {
			outer := ch[1]
			return func(fr *frame) (float64, Value, error) {
				if err := fr.in.burn(pos); err != nil {
					return 0, nil, err
				}
				s := &fr.slots[i]
				if !isUnbound(s.v) {
					return s.n, s.v, nil
				}
				if s = outer.loc(fr); !outer.always && isUnbound(s.v) {
					return undefined()
				}
				return s.n, s.v, nil
			}
		}
	}
	if len(ch) == 1 && ch[0].global >= 0 {
		gi := ch[0].global
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			s := fr.glob[gi]
			if isUnbound(s.v) {
				return undefined()
			}
			return s.n, s.v, nil
		}
	}
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		for _, b := range ch {
			if s := b.loc(fr); b.always || !isUnbound(s.v) {
				return s.n, s.v, nil
			}
		}
		return undefined()
	}
}

// variable is a compiled assignment target. A name bound in a slot of the
// running frame is stored in place; any other goes through set along its
// scope chain.
type variable struct {
	set  storeFn
	own  bool
	slot int
}

func (c *compiler) variable(f *fnInfo, name string) variable {
	slot, own := ownSlot(f, name)
	return variable{set: c.store(f, name), own: own, slot: slot}
}

func (v *variable) store(fr *frame, n float64, val Value) {
	if v.own {
		if s := &fr.slots[v.slot]; !isUnbound(s.v) {
			s.n, s.v = n, val
			return
		}
	}
	v.set(fr, n, val)
}

// store compiles an assignment to a name: the nearest scope where it is
// bound, else a new binding in f (a global at the top level).
func (c *compiler) store(f *fnInfo, name string) storeFn {
	ch := c.chain(f, name)
	if f.top || ch[0].always {
		loc := ch[0].loc
		return func(fr *frame, n float64, v Value) {
			s := loc(fr)
			s.n, s.v = n, v
		}
	}
	return func(fr *frame, n float64, v Value) {
		for _, b := range ch {
			if s := b.loc(fr); b.always || !isUnbound(s.v) {
				s.n, s.v = n, v
				return
			}
		}
		s := ch[0].loc(fr)
		s.n, s.v = n, v
	}
}

// Statements.

func (c *compiler) stmt(f *fnInfo, n Node) stmtFn {
	pos := n.position()
	switch s := n.(type) {
	case *exprStmt:
		x := c.expr(f, s.x)
		return func(fr *frame) (ctrl, error) {
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
			_, _, err := x(fr)
			return ctrlNone, err
		}
	case *blockStmt:
		body := make([]stmtFn, len(s.stmts))
		for i, st := range s.stmts {
			body[i] = c.stmt(f, st)
		}
		return func(fr *frame) (ctrl, error) {
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
			for _, st := range body {
				if c, err := st(fr); err != nil || c != ctrlNone {
					return c, err
				}
			}
			return ctrlNone, nil
		}
	case *ifStmt:
		cond := c.cond(f, s.cond)
		then := c.stmt(f, s.then)
		var alt stmtFn
		if s.alt != nil {
			alt = c.stmt(f, s.alt)
		}
		return func(fr *frame) (ctrl, error) {
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
			ok, err := cond(fr)
			if err != nil {
				return ctrlNone, err
			}
			if ok {
				return then(fr)
			}
			if alt != nil {
				return alt(fr)
			}
			return ctrlNone, nil
		}
	case *whileStmt:
		// A while loop is a for loop without init and post, fuel included.
		return c.loop(f, pos, nil, s.cond, nil, s.body)
	case *forStmt:
		return c.loop(f, pos, s.init, s.cond, s.post, s.body)
	case *forEachStmt:
		return c.forEach(f, s)
	case *returnStmt:
		if s.val == nil {
			return func(fr *frame) (ctrl, error) {
				if err := fr.in.burn(pos); err != nil {
					return ctrlNone, err
				}
				fr.retN, fr.retV = 0, nil
				return ctrlReturn, nil
			}
		}
		val := c.expr(f, s.val)
		return func(fr *frame) (ctrl, error) {
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
			n, v, err := val(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.retN, fr.retV = n, v
			return ctrlReturn, nil
		}
	case *breakStmt, *continueStmt:
		ctl := ctrlBreak
		if _, ok := s.(*continueStmt); ok {
			ctl = ctrlContinue
		}
		return func(fr *frame) (ctrl, error) {
			if err := fr.in.burn(pos); err != nil {
				return ctrlNone, err
			}
			return ctl, nil
		}
	}
	return func(fr *frame) (ctrl, error) {
		if err := fr.in.burn(pos); err != nil {
			return ctrlNone, err
		}
		return ctrlNone, rtErr(pos, "internal: unknown statement %T", n)
	}
}

// loop compiles a for loop; any of init, cond and post may be nil.
func (c *compiler) loop(f *fnInfo, pos Pos, initN, condN, postN, bodyN Node) stmtFn {
	var init, post exprFn
	var cond condFn
	if initN != nil {
		init = c.expr(f, initN)
	}
	if condN != nil {
		cond = c.cond(f, condN)
	}
	if postN != nil {
		post = c.expr(f, postN)
	}
	body := c.stmt(f, bodyN)
	return func(fr *frame) (ctrl, error) {
		in := fr.in
		if err := in.burn(pos); err != nil {
			return ctrlNone, err
		}
		if init != nil {
			if _, _, err := init(fr); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if cond != nil {
				ok, err := cond(fr)
				if err != nil || !ok {
					return ctrlNone, err
				}
			}
			c, err := body(fr)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if post != nil {
				if _, _, err := post(fr); err != nil {
					return ctrlNone, err
				}
			}
			if err := in.burn(pos); err != nil {
				return ctrlNone, err
			}
		}
	}
}

func (c *compiler) forEach(f *fnInfo, s *forEachStmt) stmtFn {
	pos := s.pos
	iterable := c.expr(f, s.iterable)
	loopVar := c.variable(f, s.ident)
	body := c.stmt(f, s.body)
	return func(fr *frame) (ctrl, error) {
		in := fr.in
		if err := in.burn(pos); err != nil {
			return ctrlNone, err
		}
		itN, itV, err := iterable(fr)
		if err != nil {
			return ctrlNone, err
		}
		switch it := itV.(type) {
		case *numMarker:
			for i := 0.0; i < itN; i++ {
				loopVar.store(fr, i, numV)
				c, err := body(fr)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		case *Array:
			elems := it.Elems
			for i := 0; i < len(elems); i++ {
				n, v := unbox(elems[i])
				loopVar.store(fr, n, v)
				c, err := body(fr)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				if err := in.burn(pos); err != nil {
					return ctrlNone, err
				}
			}
			return ctrlNone, nil
		case *Map:
			for _, k := range sortedMapKeys(it) {
				loopVar.store(fr, 0, k)
				c, err := body(fr)
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
		}
		return ctrlNone, rtErr(pos, "cannot iterate over %s", TypeName(box(itN, itV)))
	}
}

// Expressions.

// cond compiles an expression evaluated for its truth.
func (c *compiler) cond(f *fnInfo, n Node) condFn {
	pos := n.position()
	switch e := n.(type) {
	case *binaryExpr:
		switch e.op {
		case tokAnd, tokOr:
			l, r := c.cond(f, e.l), c.cond(f, e.r)
			and := e.op == tokAnd
			return func(fr *frame) (bool, error) {
				if err := fr.in.burn(pos); err != nil {
					return false, err
				}
				lb, err := l(fr)
				if err != nil || lb != and {
					return lb, err
				}
				return r(fr)
			}
		case tokLt, tokLe, tokGt, tokGe, tokEq, tokNe:
			l, r := c.operand(f, e.l), c.operand(f, e.r)
			op := e.op
			return func(fr *frame) (bool, error) {
				if err := fr.in.burn(pos); err != nil {
					return false, err
				}
				ln, lv, err := l.eval(fr)
				if err != nil {
					return false, err
				}
				rn, rv, err := r.eval(fr)
				if err != nil {
					return false, err
				}
				if isNum(lv) && isNum(rv) {
					switch op {
					case tokLt:
						return ln < rn, nil
					case tokLe:
						return ln <= rn, nil
					case tokGt:
						return ln > rn, nil
					case tokGe:
						return ln >= rn, nil
					}
				}
				return compare(pos, op, ln, lv, rn, rv)
			}
		}
	case *unaryExpr:
		if e.op == tokNot {
			x := c.cond(f, e.x)
			return func(fr *frame) (bool, error) {
				if err := fr.in.burn(pos); err != nil {
					return false, err
				}
				b, err := x(fr)
				return !b, err
			}
		}
	}
	x := c.expr(f, n)
	return func(fr *frame) (bool, error) {
		n, v, err := x(fr)
		return truthy(n, v), err
	}
}

// compare applies an equality or ordering operator to two results.
func compare(pos Pos, op tokKind, ln float64, lv Value, rn float64, rv Value) (bool, error) {
	if isNum(lv) && isNum(rv) {
		switch op {
		case tokLt:
			return ln < rn, nil
		case tokLe:
			return ln <= rn, nil
		case tokGt:
			return ln > rn, nil
		case tokGe:
			return ln >= rn, nil
		}
	}
	switch op {
	case tokEq:
		return equalResults(ln, lv, rn, rv), nil
	case tokNe:
		return !equalResults(ln, lv, rn, rv), nil
	}
	r, err := applyBinary(pos, op, box(ln, lv), box(rn, rv))
	if err != nil {
		return false, err
	}
	return Truthy(r), nil
}

// binary applies an operator other than && and || to two results.
func binary(pos Pos, op tokKind, ln float64, lv Value, rn float64, rv Value) (float64, Value, error) {
	if isNum(lv) && isNum(rv) {
		switch op {
		case tokPlus:
			return ln + rn, numV, nil
		case tokMinus:
			return ln - rn, numV, nil
		case tokStar:
			return ln * rn, numV, nil
		}
	}
	switch op {
	case tokEq:
		return 0, boolV(equalResults(ln, lv, rn, rv)), nil
	case tokNe:
		return 0, boolV(!equalResults(ln, lv, rn, rv)), nil
	}
	if isNum(lv) && isNum(rv) {
		f, b, isBool, err := arith(pos, op, ln, rn)
		if err != nil {
			return 0, nil, err
		}
		if isBool {
			return 0, boolV(b), nil
		}
		return f, numV, nil
	}
	r, err := applyBinary(pos, op, box(ln, lv), box(rn, rv))
	if err != nil {
		return 0, nil, err
	}
	n, v := unbox(r)
	return n, v, nil
}

func (c *compiler) expr(f *fnInfo, n Node) exprFn {
	pos := n.position()
	switch e := n.(type) {
	case *numberLit:
		val := e.val
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			return val, numV, nil
		}
	case *stringLit, *boolLit, *nilLit:
		var val Value
		switch l := e.(type) {
		case *stringLit:
			val = l.val
		case *boolLit:
			val = l.val
		}
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			return 0, val, nil
		}
	case *identExpr:
		return c.read(f, e)
	case *arrayLit:
		elems := c.exprs(f, e.elems)
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			arr := &Array{Elems: make([]Value, 0, len(elems))}
			for _, el := range elems {
				n, v, err := el(fr)
				if err != nil {
					return 0, nil, err
				}
				arr.Elems = append(arr.Elems, box(n, v))
			}
			return 0, arr, nil
		}
	case *mapLit:
		keys, vals := c.exprs(f, e.keys), c.exprs(f, e.vals)
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			m := NewMap()
			for i := range keys {
				_, k, err := keys[i](fr)
				if err != nil {
					return 0, nil, err
				}
				ks, ok := k.(string)
				if !ok {
					return 0, nil, rtErr(e.keys[i].position(), "map key must be string, got %s", TypeName(box(0, k)))
				}
				n, v, err := vals[i](fr)
				if err != nil {
					return 0, nil, err
				}
				m.Items[ks] = box(n, v)
			}
			return 0, m, nil
		}
	case *funcLit:
		return c.funcLit(f, e)
	case *unaryExpr:
		if e.op == tokNot {
			x := c.cond(f, e.x)
			return func(fr *frame) (float64, Value, error) {
				if err := fr.in.burn(pos); err != nil {
					return 0, nil, err
				}
				b, err := x(fr)
				if err != nil {
					return 0, nil, err
				}
				return 0, boolV(!b), nil
			}
		}
		x := c.expr(f, e.x)
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			n, v, err := x(fr)
			if err != nil {
				return 0, nil, err
			}
			if !isNum(v) {
				return 0, nil, rtErr(pos, "cannot negate %s", TypeName(v))
			}
			return -n, numV, nil
		}
	case *binaryExpr:
		if e.op == tokAnd || e.op == tokOr {
			x := c.cond(f, e)
			return func(fr *frame) (float64, Value, error) {
				b, err := x(fr)
				if err != nil {
					return 0, nil, err
				}
				return 0, boolV(b), nil
			}
		}
		l, r := c.operand(f, e.l), c.operand(f, e.r)
		op := e.op
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			ln, lv, err := l.eval(fr)
			if err != nil {
				return 0, nil, err
			}
			rn, rv, err := r.eval(fr)
			if err != nil {
				return 0, nil, err
			}
			return binary(pos, op, ln, lv, rn, rv)
		}
	case *ternaryExpr:
		cond := c.cond(f, e.cond)
		then, alt := c.expr(f, e.then), c.expr(f, e.alt)
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			ok, err := cond(fr)
			if err != nil {
				return 0, nil, err
			}
			if ok {
				return then(fr)
			}
			return alt(fr)
		}
	case *assignExpr:
		return c.assign(f, e)
	case *callExpr:
		return c.call(f, e)
	case *indexExpr:
		return c.index(f, e)
	case *memberExpr:
		return c.member(f, e, true)
	}
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		return 0, nil, rtErr(pos, "internal: unknown expression %T", n)
	}
}

// operand is a compiled operand. A number literal is kept as a constant,
// which saves a call on the most common operand of arithmetic and
// comparisons; its fuel still burns in order.
type operand struct {
	kind operandKind
	x    exprFn
	k    float64 // opConst
	i    int     // opSlot: the frame slot
	pos  Pos
}

type operandKind uint8

const (
	opExpr operandKind = iota
	// opConst is a number literal.
	opConst
	// opSlot is a variable in a slot of the running frame: read in place
	// when it is bound, else through x along its scope chain.
	opSlot
)

func (c *compiler) operand(f *fnInfo, n Node) operand {
	switch e := n.(type) {
	case *numberLit:
		return operand{kind: opConst, k: e.val, pos: e.pos}
	case *identExpr:
		if i, ok := ownSlot(f, e.name); ok {
			return operand{kind: opSlot, x: c.read(f, e), i: i, pos: e.pos}
		}
	}
	return operand{x: c.expr(f, n)}
}

func (o *operand) eval(fr *frame) (float64, Value, error) {
	switch o.kind {
	case opConst:
		if err := fr.in.burn(o.pos); err != nil {
			return 0, nil, err
		}
		return o.k, numV, nil
	case opSlot:
		if s := &fr.slots[o.i]; !isUnbound(s.v) {
			if err := fr.in.burn(o.pos); err != nil {
				return 0, nil, err
			}
			return s.n, s.v, nil
		}
	}
	return o.x(fr)
}

func (c *compiler) exprs(f *fnInfo, ns []Node) []exprFn {
	out := make([]exprFn, len(ns))
	for i, n := range ns {
		out[i] = c.expr(f, n)
	}
	return out
}

// index compiles target[index].
func (c *compiler) index(f *fnInfo, e *indexExpr) exprFn {
	pos := e.pos
	target, index := c.expr(f, e.target), c.expr(f, e.index)
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		tn, tv, err := target(fr)
		if err != nil {
			return 0, nil, err
		}
		in, iv, err := index(fr)
		if err != nil {
			return 0, nil, err
		}
		if isNum(iv) {
			switch t := tv.(type) {
			case *Array:
				i, err := arrayIndexNum(pos, t, in)
				if err != nil {
					return 0, nil, err
				}
				n, v := unbox(t.Elems[i])
				return n, v, nil
			case string:
				i := int(in)
				if i < 0 || i >= len(t) {
					return 0, nil, rtErr(pos, "string index %d out of range", i)
				}
				return 0, string(t[i]), nil
			}
		}
		r, err := indexValue(pos, box(tn, tv), box(in, iv))
		if err != nil {
			return 0, nil, err
		}
		n, v := unbox(r)
		return n, v, nil
	}
}

// member compiles target.name. numeric asks host objects for a typed
// numeric read first.
func (c *compiler) member(f *fnInfo, e *memberExpr, numeric bool) exprFn {
	pos, name := e.pos, e.name
	target := c.operand(f, e.target)
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		tn, tv, err := target.eval(fr)
		if err != nil {
			return 0, nil, err
		}
		if numeric {
			if no, ok := tv.(NumberObject); ok {
				if x, ok := no.NumberMember(name); ok {
					return x, numV, nil
				}
			}
		}
		r, err := memberValue(pos, box(tn, tv), name)
		if err != nil {
			return 0, nil, err
		}
		n, v := unbox(r)
		return n, v, nil
	}
}

func (c *compiler) funcLit(f *fnInfo, e *funcLit) exprFn {
	pos := e.pos
	g := c.fns[e]
	code := &funcCode{nslots: g.nslots, ncells: g.ncells}
	for _, p := range e.params {
		code.params = append(code.params, g.vars[p].loc)
	}
	code.body = c.stmt(g, e.body)
	name := e.name
	ownScope := f.ncells > 0
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		env := fr.env
		if ownScope {
			env = fr.own
		}
		return 0, &Closure{name: name, fn: code, env: env, glob: fr.glob}, nil
	}
}

func (c *compiler) assign(f *fnInfo, e *assignExpr) exprFn {
	pos := e.pos
	value := c.operand(f, e.value)
	// Compound ops read the old value first: the target is evaluated, in
	// full, before it is evaluated again for the store.
	var old operand
	op := compoundOp(e.op)
	compound := e.op != tokAssign
	if compound {
		old = c.operand(f, e.target)
	}
	rhs := func(fr *frame) (float64, Value, error) {
		n, v, err := value.eval(fr)
		if err != nil || !compound {
			return n, v, err
		}
		on, ov, err := old.eval(fr)
		if err != nil {
			return 0, nil, err
		}
		return binary(pos, op, on, ov, n, v)
	}
	switch t := e.target.(type) {
	case *identExpr:
		target := c.variable(f, t.name)
		if !compound {
			return func(fr *frame) (float64, Value, error) {
				if err := fr.in.burn(pos); err != nil {
					return 0, nil, err
				}
				n, v, err := value.eval(fr)
				if err != nil {
					return 0, nil, err
				}
				target.store(fr, n, v)
				return n, v, nil
			}
		}
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			n, v, err := value.eval(fr)
			if err != nil {
				return 0, nil, err
			}
			on, ov, err := old.eval(fr)
			if err != nil {
				return 0, nil, err
			}
			if isNum(ov) && isNum(v) && op == tokPlus {
				n += on
			} else if n, v, err = binary(pos, op, on, ov, n, v); err != nil {
				return 0, nil, err
			}
			target.store(fr, n, v)
			return n, v, nil
		}
	case *indexExpr:
		target, index := c.expr(f, t.target), c.expr(f, t.index)
		tpos := t.pos
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			n, v, err := rhs(fr)
			if err != nil {
				return 0, nil, err
			}
			tn, tv, err := target(fr)
			if err != nil {
				return 0, nil, err
			}
			in, iv, err := index(fr)
			if err != nil {
				return 0, nil, err
			}
			switch tv := tv.(type) {
			case *Array:
				if !isNum(iv) {
					return 0, nil, rtErr(tpos, "array index must be number, got %s", TypeName(iv))
				}
				i, err := arrayIndexNum(tpos, tv, in)
				if err != nil {
					return 0, nil, err
				}
				tv.Elems[i] = box(n, v)
				return n, v, nil
			case *Map:
				k, ok := iv.(string)
				if !ok {
					return 0, nil, rtErr(tpos, "map key must be string, got %s", TypeName(box(in, iv)))
				}
				tv.Items[k] = box(n, v)
				return n, v, nil
			}
			return 0, nil, rtErr(tpos, "cannot index-assign into %s", TypeName(box(tn, tv)))
		}
	case *memberExpr:
		target := c.expr(f, t.target)
		tpos, name := t.pos, t.name
		return func(fr *frame) (float64, Value, error) {
			if err := fr.in.burn(pos); err != nil {
				return 0, nil, err
			}
			n, v, err := rhs(fr)
			if err != nil {
				return 0, nil, err
			}
			tn, tv, err := target(fr)
			if err != nil {
				return 0, nil, err
			}
			switch tv := tv.(type) {
			case *Map:
				tv.Items[name] = box(n, v)
				return n, v, nil
			case SettableHostObject:
				if err := tv.SetMember(name, box(n, v)); err != nil {
					return 0, nil, rtErr(tpos, "%v", err)
				}
				return n, v, nil
			}
			return 0, nil, rtErr(tpos, "cannot set member %q on %s", name, TypeName(box(tn, tv)))
		}
	}
	return func(fr *frame) (float64, Value, error) {
		if err := fr.in.burn(pos); err != nil {
			return 0, nil, err
		}
		return 0, nil, rtErr(pos, "internal: bad assignment target")
	}
}

func (c *compiler) call(f *fnInfo, e *callExpr) exprFn {
	pos := e.pos
	var callee exprFn
	if m, ok := e.callee.(*memberExpr); ok {
		// A method is fetched as a value: no typed numeric read.
		callee = c.member(f, m, false)
	} else {
		callee = c.expr(f, e.callee)
	}
	args := c.exprs(f, e.args)
	return func(fr *frame) (float64, Value, error) {
		in := fr.in
		if err := in.burn(pos); err != nil {
			return 0, nil, err
		}
		cn, cv, err := callee(fr)
		if err != nil {
			return 0, nil, err
		}
		base := len(in.args)
		for _, a := range args {
			n, v, err := a(fr)
			if err != nil {
				in.args = in.args[:base]
				return 0, nil, err
			}
			in.args = append(in.args, slot{n, v})
		}
		switch fn := cv.(type) {
		case *Closure:
			n, v, err := in.callClosure(fn, in.args[base:], pos)
			in.args = in.args[:base]
			return n, v, err
		case HostFunc:
			vals := make([]Value, len(args))
			for i, a := range in.args[base:] {
				vals[i] = box(a.n, a.v)
			}
			in.args = in.args[:base]
			r, err := fn(vals)
			if err != nil {
				if _, isRT := err.(*RuntimeError); isRT {
					return 0, nil, err
				}
				return 0, nil, rtErr(pos, "%v", err)
			}
			n, v := unbox(r)
			return n, v, nil
		}
		in.args = in.args[:base]
		return 0, nil, rtErr(pos, "cannot call %s", TypeName(box(cn, cv)))
	}
}
