package script

// AST node definitions. Nodes carry their source position for error
// reporting back to the client — when a physicist's uploaded script fails
// on a worker node, the engine returns "script:LINE:COL: message".

// Node is any AST node.
type Node interface{ position() Pos }

// Expressions.

type numberLit struct {
	pos Pos
	val float64
}

type stringLit struct {
	pos Pos
	val string
}

type boolLit struct {
	pos Pos
	val bool
}

type nilLit struct{ pos Pos }

type arrayLit struct {
	pos   Pos
	elems []Node
}

type mapLit struct {
	pos  Pos
	keys []Node // evaluated to strings
	vals []Node
}

type identExpr struct {
	pos  Pos
	name string
}

type unaryExpr struct {
	pos Pos
	op  tokKind // tokMinus, tokNot
	x   Node
}

type binaryExpr struct {
	pos  Pos
	op   tokKind
	l, r Node
}

type ternaryExpr struct {
	pos             Pos
	cond, then, alt Node
}

type callExpr struct {
	pos    Pos
	callee Node
	args   []Node
}

type indexExpr struct {
	pos    Pos
	target Node
	index  Node
}

type memberExpr struct {
	pos    Pos
	target Node
	name   string
}

type funcLit struct {
	pos    Pos
	name   string // "" for anonymous
	params []string
	body   *blockStmt
}

// assignExpr covers =, +=, -=, *=, /= onto ident/index/member targets.
type assignExpr struct {
	pos    Pos
	op     tokKind
	target Node
	value  Node
}

// Statements.

type exprStmt struct {
	pos Pos
	x   Node
}

type blockStmt struct {
	pos   Pos
	stmts []Node
}

type ifStmt struct {
	pos       Pos
	cond      Node
	then, alt Node // alt may be nil
}

type whileStmt struct {
	pos  Pos
	cond Node
	body Node
}

type forStmt struct {
	pos              Pos
	init, cond, post Node // any may be nil
	body             Node
}

type forEachStmt struct {
	pos      Pos
	ident    string
	iterable Node
	body     Node
}

type returnStmt struct {
	pos Pos
	val Node // may be nil
}

type breakStmt struct{ pos Pos }

type continueStmt struct{ pos Pos }

func (n *numberLit) position() Pos    { return n.pos }
func (n *stringLit) position() Pos    { return n.pos }
func (n *boolLit) position() Pos      { return n.pos }
func (n *nilLit) position() Pos       { return n.pos }
func (n *arrayLit) position() Pos     { return n.pos }
func (n *mapLit) position() Pos       { return n.pos }
func (n *identExpr) position() Pos    { return n.pos }
func (n *unaryExpr) position() Pos    { return n.pos }
func (n *binaryExpr) position() Pos   { return n.pos }
func (n *ternaryExpr) position() Pos  { return n.pos }
func (n *callExpr) position() Pos     { return n.pos }
func (n *indexExpr) position() Pos    { return n.pos }
func (n *memberExpr) position() Pos   { return n.pos }
func (n *funcLit) position() Pos      { return n.pos }
func (n *assignExpr) position() Pos   { return n.pos }
func (n *exprStmt) position() Pos     { return n.pos }
func (n *blockStmt) position() Pos    { return n.pos }
func (n *ifStmt) position() Pos       { return n.pos }
func (n *whileStmt) position() Pos    { return n.pos }
func (n *forStmt) position() Pos      { return n.pos }
func (n *forEachStmt) position() Pos  { return n.pos }
func (n *returnStmt) position() Pos   { return n.pos }
func (n *breakStmt) position() Pos    { return n.pos }
func (n *continueStmt) position() Pos { return n.pos }

// Program is a compiled script, ready to run on any number of Interps.
// Its code holds no state of its own, so interpreters may share it.
type Program struct {
	stmts  []Node
	source string
	// top is the compiled code of each top-level statement.
	top []stmtFn
	// globals names the global cells the code refers to, by index.
	globals []string
}
