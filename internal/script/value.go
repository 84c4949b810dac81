package script

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Value is any script runtime value. The concrete types are:
//
//	nil          — the nil value
//	float64      — numbers
//	string       — strings
//	bool         — booleans
//	*Array       — mutable arrays
//	*Map         — string-keyed maps
//	*Closure     — script functions
//	HostFunc     — native functions
//	HostObject   — native objects with named members
type Value any

// Array is a mutable script array.
type Array struct {
	Elems []Value
}

// NewArray builds an array value.
func NewArray(elems ...Value) *Array { return &Array{Elems: elems} }

// Map is a string-keyed script map.
type Map struct {
	Items map[string]Value
}

// NewMap builds an empty map value.
func NewMap() *Map { return &Map{Items: make(map[string]Value)} }

// HostFunc is a native function callable from scripts.
type HostFunc func(args []Value) (Value, error)

// HostObject exposes a native object to scripts. Member lookup covers both
// properties and methods (methods are members whose value is a HostFunc).
type HostObject interface {
	// Member returns the named member; ok=false yields a runtime error
	// naming the member and object.
	Member(name string) (v Value, ok bool)
	// TypeName labels the object in error messages, e.g. "histogram".
	TypeName() string
}

// NumberObject is an optional HostObject extension for numeric members:
// NumberMember returns what Member returns for the name when that is a
// number, and ok=false otherwise. Scripts then read such members without
// boxing them.
type NumberObject interface {
	NumberMember(name string) (v float64, ok bool)
}

// SettableHostObject additionally allows member assignment.
type SettableHostObject interface {
	HostObject
	SetMember(name string, v Value) error
}

// Truthy implements the language's boolean coercion: false, nil, 0 and ""
// are false; everything else is true.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// TypeName labels a value's type for error messages.
func TypeName(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		return "string"
	case *Array:
		return "array"
	case *Map:
		return "map"
	case *Closure:
		return "function"
	case HostFunc:
		return "function"
	case HostObject:
		return x.TypeName()
	default:
		return fmt.Sprintf("%T", v)
	}
}

// ToString renders a value for print() and string concatenation. An array
// or map that contains itself, or nesting deeper than maxRenderDepth,
// renders as "[...]" or "{...}" instead of recursing without end, and the
// rendering of containers stops with "..." past maxConcatBytes bytes.
func ToString(v Value) string {
	switch v.(type) {
	case *Array, *Map:
		var b strings.Builder
		writeValue(&b, v, nil)
		return b.String()
	}
	return scalarString(v)
}

// maxRenderDepth bounds how deeply nested containers ToString renders.
const maxRenderDepth = 64

// writeValue renders v; open holds the containers being rendered around it.
func writeValue(b *strings.Builder, v Value, open []Value) {
	switch x := v.(type) {
	case *Array:
		if len(open) >= maxRenderDepth || containsRef(open, v) {
			b.WriteString("[...]")
			return
		}
		open = append(open, v)
		b.WriteByte('[')
		for i, e := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			if b.Len() > maxConcatBytes {
				b.WriteString("...")
				break
			}
			writeValue(b, e, open)
		}
		b.WriteByte(']')
	case *Map:
		if len(open) >= maxRenderDepth || containsRef(open, v) {
			b.WriteString("{...}")
			return
		}
		open = append(open, v)
		keys := make([]string, 0, len(x.Items))
		for k := range x.Items {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			if b.Len() > maxConcatBytes {
				b.WriteString("...")
				break
			}
			b.WriteString(k)
			b.WriteString(": ")
			writeValue(b, x.Items[k], open)
		}
		b.WriteByte('}')
	default:
		b.WriteString(scalarString(v))
	}
}

func containsRef(open []Value, v Value) bool {
	for _, o := range open {
		if o == v {
			return true
		}
	}
	return false
}

func scalarString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *Closure:
		if x.name != "" {
			return "function " + x.name
		}
		return "function"
	case HostFunc:
		return "native function"
	case HostObject:
		return "<" + x.TypeName() + ">"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// valuesEqual implements ==. Numbers, strings, bools and nil compare by
// value; arrays/maps/functions/host objects compare by identity, and
// native functions are never equal.
func valuesEqual(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case *Array:
		y, ok := b.(*Array)
		return ok && x == y
	case *Map:
		y, ok := b.(*Map)
		return ok && x == y
	case *Closure:
		y, ok := b.(*Closure)
		return ok && x == y
	case HostFunc:
		// Go functions have no identity to compare.
		return false
	default:
		// Host objects compare by identity; a type Go cannot compare is
		// never equal rather than a panic.
		t := reflect.TypeOf(a)
		return t == reflect.TypeOf(b) && t.Comparable() && a == b
	}
}

// Number converts a value to float64 or reports an error.
func Number(v Value) (float64, error) {
	if f, ok := v.(float64); ok {
		return f, nil
	}
	return 0, fmt.Errorf("expected number, got %s", TypeName(v))
}

// Str converts a value to a string or reports an error.
func Str(v Value) (string, error) {
	if s, ok := v.(string); ok {
		return s, nil
	}
	return "", fmt.Errorf("expected string, got %s", TypeName(v))
}
