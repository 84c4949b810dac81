package script

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// installBuiltins binds the standard library into an interpreter's globals.
// The set mirrors what the paper's PNUTS analyses used: math, string
// formatting, array helpers, and printing (captured by the engine and
// relayed to the client as notification messages).
func installBuiltins(define func(name string, v Value), w io.Writer) {
	out := func(s string) {
		if w != nil {
			fmt.Fprint(w, s)
		}
	}

	def := func(name string, f HostFunc) { define(name, f) }

	need := func(args []Value, n int, name string) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}

	num1 := func(name string, f func(float64) float64) HostFunc {
		return func(args []Value) (Value, error) {
			if err := need(args, 1, name); err != nil {
				return nil, err
			}
			x, err := Number(args[0])
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			return f(x), nil
		}
	}
	num2 := func(name string, f func(a, b float64) float64) HostFunc {
		return func(args []Value) (Value, error) {
			if err := need(args, 2, name); err != nil {
				return nil, err
			}
			a, err := Number(args[0])
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			b, err := Number(args[1])
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			return f(a, b), nil
		}
	}

	def("print", func(args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		out(strings.Join(parts, " "))
		return nil, nil
	})
	def("println", func(args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		out(strings.Join(parts, " ") + "\n")
		return nil, nil
	})
	def("len", func(args []Value) (Value, error) {
		if err := need(args, 1, "len"); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case string:
			return float64(len(x)), nil
		case *Array:
			return float64(len(x.Elems)), nil
		case *Map:
			return float64(len(x.Items)), nil
		default:
			return nil, fmt.Errorf("len: cannot measure %s", TypeName(args[0]))
		}
	})

	// Math.
	def("sqrt", num1("sqrt", math.Sqrt))
	def("abs", num1("abs", math.Abs))
	def("floor", num1("floor", math.Floor))
	def("ceil", num1("ceil", math.Ceil))
	def("round", num1("round", math.Round))
	def("exp", num1("exp", math.Exp))
	def("log", num1("log", math.Log))
	def("log10", num1("log10", math.Log10))
	def("sin", num1("sin", math.Sin))
	def("cos", num1("cos", math.Cos))
	def("tan", num1("tan", math.Tan))
	def("atan2", num2("atan2", math.Atan2))
	def("pow", num2("pow", math.Pow))
	def("min", num2("min", math.Min))
	def("max", num2("max", math.Max))
	define("PI", math.Pi)

	// Strings.
	def("str", func(args []Value) (Value, error) {
		if err := need(args, 1, "str"); err != nil {
			return nil, err
		}
		return ToString(args[0]), nil
	})
	def("num", func(args []Value) (Value, error) {
		if err := need(args, 1, "num"); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case float64:
			return x, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("num: cannot parse %q", x)
			}
			return f, nil
		case bool:
			if x {
				return 1.0, nil
			}
			return 0.0, nil
		default:
			return nil, fmt.Errorf("num: cannot convert %s", TypeName(args[0]))
		}
	})
	def("format", func(args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("format expects a format string")
		}
		f, err := Str(args[0])
		if err != nil {
			return nil, fmt.Errorf("format: %v", err)
		}
		rest := make([]any, len(args)-1)
		for i, a := range args[1:] {
			rest[i] = formatArg(a)
		}
		return fmt.Sprintf(f, rest...), nil
	})
	def("split", func(args []Value) (Value, error) {
		if err := need(args, 2, "split"); err != nil {
			return nil, err
		}
		s, err := Str(args[0])
		if err != nil {
			return nil, err
		}
		sep, err := Str(args[1])
		if err != nil {
			return nil, err
		}
		if n := strings.Count(s, sep) + 1; n > maxConcatElems {
			return nil, fmt.Errorf("split: %d parts exceed the %d-element limit", n, maxConcatElems)
		}
		parts := strings.Split(s, sep)
		arr := &Array{Elems: make([]Value, len(parts))}
		for i, p := range parts {
			arr.Elems[i] = p
		}
		return arr, nil
	})
	def("contains", func(args []Value) (Value, error) {
		if err := need(args, 2, "contains"); err != nil {
			return nil, err
		}
		s, err := Str(args[0])
		if err != nil {
			return nil, err
		}
		sub, err := Str(args[1])
		if err != nil {
			return nil, err
		}
		return strings.Contains(s, sub), nil
	})
	def("upper", func(args []Value) (Value, error) {
		if err := need(args, 1, "upper"); err != nil {
			return nil, err
		}
		s, err := Str(args[0])
		if err != nil {
			return nil, err
		}
		return strings.ToUpper(s), nil
	})
	def("lower", func(args []Value) (Value, error) {
		if err := need(args, 1, "lower"); err != nil {
			return nil, err
		}
		s, err := Str(args[0])
		if err != nil {
			return nil, err
		}
		return strings.ToLower(s), nil
	})

	// Arrays and maps.
	def("push", func(args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("push expects (array, values...)")
		}
		arr, ok := args[0].(*Array)
		if !ok {
			return nil, fmt.Errorf("push: first argument must be array, got %s", TypeName(args[0]))
		}
		arr.Elems = append(arr.Elems, args[1:]...)
		return arr, nil
	})
	def("keys", func(args []Value) (Value, error) {
		if err := need(args, 1, "keys"); err != nil {
			return nil, err
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, fmt.Errorf("keys: expected map, got %s", TypeName(args[0]))
		}
		ks := make([]string, 0, len(m.Items))
		for k := range m.Items {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		arr := &Array{Elems: make([]Value, len(ks))}
		for i, k := range ks {
			arr.Elems[i] = k
		}
		return arr, nil
	})
	def("has", func(args []Value) (Value, error) {
		if err := need(args, 2, "has"); err != nil {
			return nil, err
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, fmt.Errorf("has: expected map, got %s", TypeName(args[0]))
		}
		k, err := Str(args[1])
		if err != nil {
			return nil, err
		}
		_, present := m.Items[k]
		return present, nil
	})
	def("range", func(args []Value) (Value, error) {
		var lo, hi float64
		switch len(args) {
		case 1:
			h, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			hi = h
		case 2:
			l, err := Number(args[0])
			if err != nil {
				return nil, err
			}
			h, err := Number(args[1])
			if err != nil {
				return nil, err
			}
			lo, hi = l, h
		default:
			return nil, fmt.Errorf("range expects 1 or 2 arguments")
		}
		if hi-lo > maxConcatElems {
			return nil, fmt.Errorf("range of %g elements is too large", hi-lo)
		}
		arr := &Array{}
		for v := lo; v < hi; v++ {
			if v+1 == v {
				// Past 2^53, v++ no longer moves v.
				return nil, fmt.Errorf("range from %g cannot count in steps of 1", lo)
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	})
	def("sort", func(args []Value) (Value, error) {
		if err := need(args, 1, "sort"); err != nil {
			return nil, err
		}
		arr, ok := args[0].(*Array)
		if !ok {
			return nil, fmt.Errorf("sort: expected array, got %s", TypeName(args[0]))
		}
		nums := make([]float64, len(arr.Elems))
		for i, e := range arr.Elems {
			f, ok := e.(float64)
			if !ok {
				return nil, fmt.Errorf("sort: element %d is %s, not number", i, TypeName(e))
			}
			nums[i] = f
		}
		sort.Float64s(nums)
		out := &Array{Elems: make([]Value, len(nums))}
		for i, f := range nums {
			out.Elems[i] = f
		}
		return out, nil
	})
	def("error", func(args []Value) (Value, error) {
		msg := "script error"
		if len(args) > 0 {
			msg = ToString(args[0])
		}
		return nil, fmt.Errorf("%s", msg)
	})
}

// formatArg hands fmt a script value: numbers, strings, bools and nil as
// themselves, anything else as the text print() shows, so format never
// prints Go pointers or struct internals.
func formatArg(v Value) any {
	switch v.(type) {
	case nil, float64, string, bool:
		return v
	}
	return ToString(v)
}
