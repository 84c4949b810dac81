package script

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
)

// Differential tests: every program runs on the compiler and on the
// tree-walking reference (ref_test.go), which must agree on printed
// output, error text, remaining fuel and the final globals.

// runResult is everything a run can show.
type runResult struct {
	out     string
	errs    []string
	fuel    int64
	globals string
}

// testEvent is a map-built stand-in for an event record, so programs that
// define process(ev) can be called without a record decoder.
func testEvent(k int) Value {
	ev := NewMap()
	parts := &Array{}
	for i := 0; i < k; i++ {
		p := NewMap()
		p.Items["e"] = float64(i) * 7.5
		p.Items["id"] = float64(i)
		parts.Elems = append(parts.Elems, p)
	}
	ev.Items["n"] = float64(k)
	ev.Items["particles"] = parts
	ev.Items["signal"] = k%2 == 0
	return ev
}

// runOn runs prog on r: the top level, then process() over three events
// and end(), the way an analysis drives a script, with the host objects
// an analysis defines.
func runOn(r refRunner, out *capWriter, prog *Program) runResult {
	r.Define("tree", newTreeObject(aida.NewTree()))
	r.Define("workerid", "w1")
	var res runResult
	note := func(err error) bool {
		if err != nil {
			res.errs = append(res.errs, err.Error())
		}
		return err == nil
	}
	if note(r.Run(prog)) {
		for k := 0; k < 3 && r.Has("process"); k++ {
			if !note(callValue(r, "process", testEvent(k))) {
				break
			}
		}
		if r.Has("end") {
			note(callValue(r, "end"))
		}
	}
	// Calling a name that is not a function must fail alike too.
	note(callValue(r, "workerid"))
	res.out = string(out.buf)
	res.fuel = r.RemainingFuel()
	res.globals = globalsOf(r)
	return res
}

func callValue(r refRunner, name string, args ...Value) error {
	_, err := r.Call(name, args...)
	return err
}

// globalsOf renders every bound global, sorted by name.
func globalsOf(r refRunner) string {
	var names []string
	switch in := r.(type) {
	case *Interp:
		for name := range in.globals {
			names = append(names, name)
		}
	case *refInterp:
		for name := range in.globals.vars {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if v, ok := r.Lookup(name); ok {
			fmt.Fprintf(&b, "%s=%s [%s]\n", name, ToString(v), TypeName(v))
		}
	}
	return b.String()
}

// runBoth compiles src once and runs it on both interpreters.
func runBoth(t testing.TB, src string, opts Options) (got, want runResult, ok bool) {
	prog, err := Compile(src)
	if err != nil {
		return runResult{}, runResult{}, false
	}
	cOut, rOut := &capWriter{max: 1 << 16}, &capWriter{max: 1 << 16}
	co, ro := opts, opts
	co.Output, ro.Output = cOut, rOut
	got = runOn(New(co), cOut, prog)
	want = runOn(newRef(ro), rOut, prog)
	return got, want, true
}

func diffResults(got, want runResult) string {
	var d []string
	if got.out != want.out {
		d = append(d, fmt.Sprintf("output:\n compiled %q\n reference %q", got.out, want.out))
	}
	if strings.Join(got.errs, "\n") != strings.Join(want.errs, "\n") {
		d = append(d, fmt.Sprintf("errors:\n compiled %q\n reference %q", got.errs, want.errs))
	}
	if got.fuel != want.fuel {
		d = append(d, fmt.Sprintf("remaining fuel: compiled %d, reference %d", got.fuel, want.fuel))
	}
	if got.globals != want.globals {
		d = append(d, fmt.Sprintf("globals:\n compiled:\n%s reference:\n%s", got.globals, want.globals))
	}
	return strings.Join(d, "\n")
}

// scriptCorpus is every program of this package's tests plus probes of
// the rules the compiler has to keep: scoping, capture, fuel order,
// control flow and error positions.
var scriptCorpus = []string{
	// From script_test.go.
	`result = 1 + 2 * 3; r2 = (1 + 2) * 3; r3 = 10 / 4; r4 = 7 % 3; r5 = -3 + 5; r6 = 1e3 + 0.5; r7 = 10 - 2 - 3;`,
	`a = 1 < 2; b = 2 <= 2; c = 3 > 4; d = 1 == 1; e = 1 != 1; f = "a" < "b"; g = "x" == "x";
	 h = true && false; i = true || false; j = !false; k = nil == nil; l = 1 == "1";`,
	`x = 0; ok1 = false && (1/x > 0); ok2 = true || (1/x > 0);`,
	`s = "mass = " + 125.5; l = len("hello"); f = format("%.2f GeV", 120.123); u = upper("abc"); c = "abc"[1];`,
	`a = [1, 2, 3]; push(a, 10); a[0] = 99; total = 0; for (x : a) { total += x; }
	 m = {"x": 1, "y": 2}; m["z"] = 3; m.w = 4; sum = m.x + m["y"] + m.z + m.w;
	 ks = keys(m); sorted = sort([3, 1, 2]);`,
	`i = 0; evens = 0;
	 while (true) { i += 1; if (i > 10) break; if (i % 2 == 1) continue; evens += 1; }
	 fact = 1; for (k = 1; k <= 5; k += 1) fact *= k;
	 sign = -5 < 0 ? "neg" : "pos"; cnt = 0; for (j : 4) cnt += 1;`,
	`function add(a, b) { return a + b; }
	 function makeCounter() { n = 0; return function() { n += 1; return n; }; }
	 c1 = makeCounter(); c2 = makeCounter(); c1(); c1(); x = c1(); y = c2(); s = add(2, 3);
	 function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } f10 = fib(10);`,
	`function f(n) { return f(n+1); } f(0);`,
	`while (true) { x = 1; }`,
	"x = 1;\ny = x / 0;",
	"undefinedVariable + 1;",
	"a = [1]; a[5];",
	"a = [1]; a[\"x\"];",
	"f = 5; f();",
	"m = {\"a\": 1}; m[3];",
	"x = -\"str\";",
	`x = 1 < "a";`,
	`x = 10; x += 5; x -= 3; x *= 2; x /= 4; a = [1]; a[0] += 10; m = {"k": 2}; m.k *= 5;`,
	`println("found peak at", 120.5); print("done");`,
	`error("bad event format");`,
	`r = sqrt(16) + pow(2, 10) + abs(-3.5) + min(2, 1) + max(5, 9) + floor(2.9) + ceil(2.1) + num("42.5");`,
	`function square(x) { return x * x; } r = square(7);`,
	`m = {"b": 1, "a": 2, "c": 3}; order = ""; for (k : m) order += k;`,
	// From analysis_test.go (tree, workerid and process(ev) come from runOn).
	`h = tree.h1d("/demo", "lengths", "Record lengths", 10, 0, 10); n = 0;
	 function process(rec) { h.fill(len(rec)); n += 1; }
	 function end() { println("processed", n, "records"); h.annotate("records", n); }`,
	`x = 1; function process(r) {}`,
	`function process(r) { x = 1/0; }`,
	`cut = num("25"); function process(r) {} function end() { println("cut:", cut); }`,
	`h2 = tree.h2d("/d", "grid", "", 4, 0, 4, 4, 0, 4); p = tree.p1d("/d", "prof", "", 4, 0, 4);
	 c = tree.c1d("/d", "cloud", "");
	 function process(r) { h2.fill(1.5, 2.5); p.fill(1.0, 10.0); c.fill(len(r)); }
	 function end() {
		if (h2.entries() != 3) error("h2 wrong");
		if (p.entries() != 3) error("p wrong");
		println(c.mean(), c.rms(), c.entries(), h2.meanX(), h2.meanY());
	 }`,
	`h = tree.h1d("/x", "h", "", 10, 0, 10);
	 function process(r) { h.fill(2.5); h.fill(2.6, 2); }
	 function end() {
		println(h.entries(), h.binHeight(2), h.binCenter(2), h.bins(), h.mean(), h.rms(), h.maxBinHeight());
		h.scale(2); println(h.binHeight(2)); h.reset(); println(h.entries());
	 }`,
	`h1 = tree.h1d("/x", "h", "", 10, 0, 10); h2 = tree.h1d("/x", "h", "", 10, 0, 10);
	 function process(r) { h1.fill(1); h2.fill(2); } function end() { println(h1.entries()); }`,
	`h = tree.h1d("/d", "m", "", 40, 160, 0); function process(r) {}`,
	`h = tree.h2d("/d", "h", "", 10, sqrt(-1), 1, 10, 0, 1); function process(r) {}`,
	// The quickstart and benchmark analyses over map-built events.
	`mult = tree.h1d("/demo", "multiplicity", "Particles per event", 40, 0, 160);
	 energy = tree.h1d("/demo", "energy", "Total visible energy [GeV]", 50, 0, 800);
	 function process(ev) { mult.fill(ev.n); tot = 0; for (p : ev.particles) tot += p.e; energy.fill(tot); }
	 function end() { println("worker", workerid, "done:", mult.entries(), "events", energy.mean()); }`,
	`h = tree.h1d("/b", "mult", "", 50, 0, 200);
	 function process(ev) { sel = 0; for (p : ev.particles) if (p.e >= 20) sel += 1; h.fill(sel); }
	 function end() { println(h.entries(), h.mean()); }`,
	// Scoping: function scope, blocks open none, assignment finds the
	// nearest bound scope at run time.
	`x = 1; function f() { x = 2; } f(); function g() { y = 3; } g(); has_y = len(keys({}));`,
	`function f() { t = 1; { t = 2; u = 3; } return t + u; } r = f();`,
	`function f() { print(z); z = 1; } f();`,
	`function f() { r = z; z = 5; return r; } z = 9; a = f(); b = z;`,
	`function f() { if (false) { w = 1; } return w; } f();`,
	`function f() { q = 1; return q; } a = f(); q = 10; b = f(); c = q;`,
	`function f(p) { p = p + 1; return p; } p = 100; r = f(1); s = p;`,
	`function f() { for (i : 3) { s = i; } return i + s; } r = f(); function g() { return i; } g();`,
	`i = 5; function f() { for (i : 3) {} } f(); r = i;`,
	`function outer() { a = 1; function inner() { a += 10; b = 2; return a; } x = inner(); return [a, x]; } r = outer();`,
	`function outer() { function inner() { v = 7; } inner(); return v; } outer();`,
	`function outer(k) { return function(m) { return function() { k += m; return k; }; }; }
	 add = outer(10)(5); r1 = add(); r2 = add(); add2 = outer(1)(1); r3 = add2();`,
	`function outer() { n = 0; inc = function() { n += 1; }; get = function() { return n; }; return [inc, get]; }
	 fs = outer(); fs[0](); fs[0](); r = fs[1]();`,
	`function outer() { x = 1; function mid() { function inner() { return x; } return inner; } return mid(); } r = outer()();`,
	`function outer() { function mid() { x = 3; function inner() { x += 1; return x; } return inner; } return mid(); } f = outer(); r = f() + f();`,
	`function f() { return g(); } function g() { return later; } r1 = 0; later = 4; r2 = f();`,
	`fs = []; for (i : 3) push(fs, function() { return i; }); r = fs[0]() + fs[2]();`,
	`function mk() { fs = []; for (i : 3) { j = i; push(fs, function() { return j; }); } return fs; } fs = mk(); r = fs[0]() + fs[1]();`,
	`function f(a, b, c) { return [a, b, c]; } r1 = f(1); r2 = f(1, 2, 3, 4); r3 = f();`,
	`function rec(n) { if (n == 0) return 0; loc = n; r = rec(n - 1); return loc + r; } r = rec(5);`,
	`function f() { f = 3; return 1; } a = f(); b = f;`,
	`function f() { return; } r = f(); function g() { break; } s = g(); function h() { continue; x = 1; } u = h();`,
	`return 5;`,
	`for (i : 3) { if (i == 1) return; }`,
	`while (true) { break; } continue;`,
	`if (true) { break; }`,
	// Values and operators.
	`a = "x" + [1, "y", nil, true]; b = [1] + [2, 3]; c = 2 + "s"; d = "a" + {"k": [1]}; e = nil + "z";`,
	`a = -0; b = 1 / -0.0000001; c = 0 * -1; d = str(a) + str(c); e = 5 % -3; f = -5 % 3;`,
	`x = 1 + true;`, `x = [1] - [1];`, `x = "a" * 2;`, `x = nil < 1;`, `x = "a" < 1;`, `x = {} + {};`,
	`x = 7 % 0;`, `x = 1; x /= 0;`, `x = "a"; x -= 1;`, `y += 1;`, `a = [1]; a[0.5];`, `a = [1]; a[-1] = 2;`,
	`a = [1]; a["k"] = 2;`, `m = {}; m[1] = 2;`, `s = "ab"; s[0] = "c";`, `n = 5; n.x = 1;`, `n = 5; n[0];`,
	`s = "abc"; r = [s[0], s[2], s.length, [1, 2].length];`, `s = "abc"; s[3];`, `s = "abc"; s["x"];`, `s = "é"; r = s[0] + s[1];`,
	`m = {"a": 1}; r = [m.missing, m["missing"], m.a];`, `x = {1: 2};`, `x = {"a": 1, "a": 2}; r = x.a;`,
	`n = 3; n.foo;`, `f = function() {}; f.x;`, `nil.x;`, `true();`, `"s"();`, `[1]();`, `sqrt.x;`,
	`r = [!0, !1, !"", !"a", !nil, ![], !{}, !sqrt(-1), 0 ? 1 : 2, "" ? 1 : 2];`,
	`r = [1 == 1.0, nil == false, [] == [], "a" != "b", sqrt == sqrt, 1 != "1"];`,
	`a = [1]; b = a; r = [a == b, a == [1]];`,
	`function f() {} g = f; r = [f == g, f == function() {}];`,
	`x = y = z = 4; r = x + y + z;`, `a = [0, 0]; i = 0; a[i += 1] = 5; r = a;`,
	`a = [1, 2]; i = 0; a[i] += (i = 1); r = [a, i];`,
	`m = {}; m.k = m.k2 = 3; r = m;`,
	`r = 1 < 2 == true; s = 2 * 3 % 4; t = -2 * -3; u = !!3;`,
	`for (x : "abc") {}`, `for (x : nil) {}`, `for (x : -3) { y = 1; }`, `for (x : 2.5) { last = x; }`,
	`r = 0; for (x : sqrt(-1)) r += 1;`,
	`a = [1, 2, 3]; for (x : a) { push(a, x); } r = len(a);`,
	`a = [1, 2, 3]; for (x : a) { a[2] = 9; s = x; } r = s;`,
	`m = {"a": 1, "b": 2}; for (k : m) { m["c"] = 3; r = k; } n = len(m);`,
	`s = 0; for (i = 0; i < 10; i += 1) { if (i == 7) break; if (i % 2) continue; s += i; } r = [s, i];`,
	`for (;;) { x = 1; }`, `for (i = 0; ; i += 1) { if (i > 3) break; }`,
	`i = 0; while (i < 3) i += 1; r = i;`,
	`function f() { while (true) { return 5; } } r = f(); function g() { for (x : [1, 2]) { return x; } } s = g();`,
	`function f() { for (k : {"a": 1}) return k; } r = f(); function g() { for (;;) return 3; } s = g();`,
	// Builtins.
	`r = [len([1, 2]), len({"a": 1}), len("abc"), str(1.5), num(" 2 "), num(true), num(false)];`,
	`len(5);`, `num("x");`, `num([]);`, `sqrt("a");`, `pow(1);`, `sqrt(1, 2);`,
	`r = format("%d %s %v %5.1f|%x", 3, "s", [1, [2]], 2.25, "hi");`,
	`f = function() {}; function g() {} r = format("%v %v %v %v", f, g, sqrt, {"a": [nil]});`,
	`r = [split("a,b,,c", ","), contains("abc", "b"), upper("x"), lower("Y"), keys({"b": 1, "a": 2}), has({"a": 1}, "a")];`,
	`r = [range(3), range(2, 5), range(0), sort([3, 1, 2])];`, `range(1, 2, 3);`, `sort([1, "a"]);`,
	`range(9007199254740992, 9007199254740994);`, `range(1e8);`,
	`push(1, 2);`, `push([]);`, `keys(1);`, `has(1, "a");`, `format();`, `format(1);`, `split(1, 2);`,
	`error(); `, `error(1, 2);`, `r = PI * 2; PI = 3; s = PI;`, `sqrt = 1; r = sqrt;`, `print = nil; print(1);`,
	`a = []; push(a, a); println(a); m = {}; m.self = m; println(m); b = [a, a]; println(b);`,
	// Host objects.
	`r = [tree.ls(), tree.ls("/"), str(tree), tree]; tree.nope();`, `tree.h1d();`, `tree.h1d(1, 2, 3, 4, 5, 6);`,
	`h = tree.h1d("/a", "b", "", 5, 0, 5); h.fill(); h.fill("x"); `, `h = tree.h1d("/a", "b", "", 5, 0, 5); h.nope;`,
	`h = tree.h1d("/a", "b", "", 5, 0, 5); h.binHeight(9);`, `tree.x = 1;`, `h = tree.c1d("/a", "c", ""); h.fill(1, 2, 3);`,
	`t = tree; t2 = t; r = t == t2; s = tree.h1d == tree.h1d;`,
}

// concatCorpus runs into the concatenation limits. Its cost is memory,
// not steps, so the fuel sweep leaves it out.
var concatCorpus = []string{
	`s = "ab"; i = 0; while (true) { s = s + s; i += 1; } `,
	`a = [1]; while (true) a = a + a;`,
}

func TestCompiledMatchesReference(t *testing.T) {
	for i, src := range append(scriptCorpus[:len(scriptCorpus):len(scriptCorpus)], concatCorpus...) {
		got, want, ok := runBoth(t, src, Options{Fuel: 100_000})
		if !ok {
			t.Fatalf("corpus[%d] does not compile:\n%s", i, src)
		}
		if d := diffResults(got, want); d != "" {
			t.Errorf("corpus[%d] %s\n%s", i, src, d)
		}
	}
}

// TestFuelExhaustsAtTheSamePoint runs every corpus program with every
// small budget up to what it needs (sampled for long runs), so each
// point where fuel can run out is checked: the error, its position, the
// output and state before it and the fuel left must match.
func TestFuelExhaustsAtTheSamePoint(t *testing.T) {
	for i, src := range scriptCorpus {
		const budget = 20_000
		full, _, _ := runBoth(t, src, Options{Fuel: budget})
		used := budget - full.fuel
		step := used/100 + 1
		for fuel := int64(1); fuel <= used+1; fuel += step {
			got, want, _ := runBoth(t, src, Options{Fuel: fuel})
			if d := diffResults(got, want); d != "" {
				t.Fatalf("corpus[%d] with fuel %d: %s\n%s", i, fuel, src, d)
			}
		}
	}
}

func TestCallDepthLimitMatches(t *testing.T) {
	for i, src := range scriptCorpus {
		for depth := 1; depth <= 4; depth++ {
			got, want, _ := runBoth(t, src, Options{Fuel: 20_000, MaxCallDepth: depth})
			if d := diffResults(got, want); d != "" {
				t.Fatalf("corpus[%d] with call depth %d: %s\n%s", i, depth, src, d)
			}
		}
	}
}

// FuzzScriptRun compiles the input and runs it on both interpreters under
// a small fuel and call-depth budget; they must agree on output, errors,
// remaining fuel and globals, and neither may panic.
func FuzzScriptRun(f *testing.F) {
	for _, src := range scriptCorpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want, ok := runBoth(t, src, Options{Fuel: 5000, MaxCallDepth: 16})
		if !ok {
			return
		}
		if d := diffResults(got, want); d != "" {
			t.Fatalf("%q\n%s", src, d)
		}
	})
}

// TestHostileScriptsAreErrors: scripts that crashed or exhausted the
// process running them (a stack overflow on printing a cyclic array, a
// panic comparing native functions, range() stalling past 2^53, memory
// doubling by concatenation, a stack overflow parsing deep nesting) now
// come back as errors or bounded values.
func TestHostileScriptsAreErrors(t *testing.T) {
	deep := strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000)
	for _, c := range []struct {
		src, result, err string
	}{
		{`a = [1]; push(a, a); m = {}; m.self = m; result = str(a) + str(m);`, "[1, [...]]{self: {...}}", ""},
		{`result = [sqrt == sqrt, sqrt != sqrt, tree == tree];`, "[false, true, true]", ""},
		{`function g() {} result = format("%v %s|%v", [1, [nil]], {"k": sqrt}, g);`, "[1, [nil]] {k: native function}|function g", ""},
		{`range(9007199254740992, 9007199254740994);`, "", "cannot count in steps of 1"},
		{`range(2000000);`, "", "too large"},
		{`s = "ab"; while (true) s = s + s;`, "", "byte limit"},
		{`a = [1]; while (true) a += a;`, "", "element limit"},
		{`s = "x"; for (i : 21) s += s; split(s, "");`, "", "element limit"},
		{"x = " + deep + ";", "", "nesting deeper than"},
	} {
		in := New(Options{})
		in.Define("tree", newTreeObject(aida.NewTree()))
		prog, err := Compile(c.src)
		if err == nil {
			err = in.Run(prog)
		}
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%.60s: error %v, want %q", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%.60s: %v", c.src, err)
			continue
		}
		if v, _ := in.Lookup("result"); ToString(v) != c.result {
			t.Errorf("%.60s: result %q, want %q", c.src, ToString(v), c.result)
		}
	}
}
