package engine

import (
	"fmt"
	"math"
	"strings"
)

// Vectorized binary kernels. The hot paths (float/int arithmetic and
// comparison with all-valid inputs) run as tight loops over the payload
// slices with no per-row branching — this is what the paper leans on when it
// argues for in-engine execution ("vectorization, zero-cost copy").

func evalBinary(x *Binary, t *Table) (*Vector, error) {
	l, err := Eval(x.L, t)
	if err != nil {
		return nil, err
	}
	r, err := Eval(x.R, t)
	if err != nil {
		return nil, err
	}
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("engine: operand length mismatch %d vs %d", l.Len(), r.Len())
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return arith(x.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		return compare(x.Op, l, r)
	case "AND", "OR":
		return logical(x.Op, l, r)
	case "||":
		return concat(l, r)
	}
	return nil, fmt.Errorf("engine: unknown operator %q", x.Op)
}

// mergeValid intersects two validity bitmaps (nil = all valid).
func mergeValid(a, b *Bitmap, n int) *Bitmap {
	if a == nil && b == nil {
		return nil
	}
	// Word-wise AND. NewBitmap's tail word is already masked to n bits, so
	// ANDing against it also strips any stray bits a sliced (morsel-view)
	// bitmap may carry past its logical length.
	out := NewBitmap(n)
	for w := range out.words {
		m := out.words[w]
		if a != nil {
			m &= a.words[w]
		}
		if b != nil {
			m &= b.words[w]
		}
		out.words[w] = m
	}
	return out
}

func arith(op string, l, r *Vector) (*Vector, error) {
	n := l.Len()
	// Pure integer arithmetic stays integer (except /, which is SQL integer
	// division here as in MonetDB).
	if l.Type() == Int64 && r.Type() == Int64 {
		out := make([]int64, n)
		valid := mergeValid(l.Valid(), r.Valid(), n)
		a, b := l.Int64s(), r.Int64s()
		switch op {
		case "+":
			for i := range out {
				out[i] = a[i] + b[i]
			}
		case "-":
			for i := range out {
				out[i] = a[i] - b[i]
			}
		case "*":
			for i := range out {
				out[i] = a[i] * b[i]
			}
		case "/", "%":
			if valid == nil {
				valid = NewBitmap(n)
			}
			for i := range out {
				if b[i] == 0 {
					valid.Set(i, false)
					continue
				}
				if op == "/" {
					out[i] = a[i] / b[i]
				} else {
					out[i] = a[i] % b[i]
				}
			}
		}
		return NewInt64Vector(out, valid), nil
	}
	lf, rf := l.CastFloat64(), r.CastFloat64()
	a, b := lf.Float64s(), rf.Float64s()
	out := make([]float64, n)
	valid := mergeValid(lf.Valid(), rf.Valid(), n)
	switch op {
	case "+":
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case "-":
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case "*":
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case "/":
		if valid == nil {
			valid = NewBitmap(n)
		}
		for i := range out {
			if b[i] == 0 {
				valid.Set(i, false)
				continue
			}
			out[i] = a[i] / b[i]
		}
	case "%":
		if valid == nil {
			valid = NewBitmap(n)
		}
		for i := range out {
			if b[i] == 0 {
				valid.Set(i, false)
				continue
			}
			out[i] = math.Mod(a[i], b[i])
		}
	}
	return NewFloat64Vector(out, valid), nil
}

func compare(op string, l, r *Vector) (*Vector, error) {
	n := l.Len()
	out := make([]bool, n)
	valid := mergeValid(l.Valid(), r.Valid(), n)
	if l.Type() == String && r.Type() == String {
		for i := 0; i < n; i++ {
			if !valid.Get(i) {
				continue
			}
			c := strings.Compare(l.StringAt(i), r.StringAt(i))
			out[i] = cmpHolds(op, c)
		}
		return NewBoolVector(out, valid), nil
	}
	if l.Type() == String || r.Type() == String {
		return nil, fmt.Errorf("engine: cannot compare %v with %v", l.Type(), r.Type())
	}
	if l.Type() == Int64 && r.Type() == Int64 {
		// Exact: int64 values past 2^53 share float64s.
		compareSlices(op, l.Int64s(), r.Int64s(), out)
	} else {
		compareSlices(op, l.CastFloat64().Float64s(), r.CastFloat64().Float64s(), out)
	}
	return NewBoolVector(out, valid), nil
}

// compareSlices writes a[i] op b[i] into out.
func compareSlices[T int64 | float64](op string, a, b []T, out []bool) {
	switch op {
	case "=":
		for i := range out {
			out[i] = a[i] == b[i]
		}
	case "<>":
		for i := range out {
			out[i] = a[i] != b[i]
		}
	case "<":
		for i := range out {
			out[i] = a[i] < b[i]
		}
	case "<=":
		for i := range out {
			out[i] = a[i] <= b[i]
		}
	case ">":
		for i := range out {
			out[i] = a[i] > b[i]
		}
	case ">=":
		for i := range out {
			out[i] = a[i] >= b[i]
		}
	}
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// logical implements SQL three-valued AND/OR over bool vectors.
func logical(op string, l, r *Vector) (*Vector, error) {
	if l.Type() != Bool || r.Type() != Bool {
		return nil, fmt.Errorf("engine: %s requires boolean operands", op)
	}
	n := l.Len()
	out := make([]bool, n)
	valid := NewBitmap(n)
	a, b := l.Bools(), r.Bools()
	for i := 0; i < n; i++ {
		ln, rn := l.IsNull(i), r.IsNull(i)
		switch op {
		case "AND":
			switch {
			case !ln && !rn:
				out[i] = a[i] && b[i]
			case !ln && !a[i], !rn && !b[i]:
				out[i] = false // FALSE AND NULL = FALSE
			default:
				valid.Set(i, false)
			}
		case "OR":
			switch {
			case !ln && !rn:
				out[i] = a[i] || b[i]
			case !ln && a[i], !rn && b[i]:
				out[i] = true // TRUE OR NULL = TRUE
			default:
				valid.Set(i, false)
			}
		}
	}
	return NewBoolVector(out, valid), nil
}

func concat(l, r *Vector) (*Vector, error) {
	n := l.Len()
	out := NewVector(String)
	for i := 0; i < n; i++ {
		if l.IsNull(i) || r.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendString(asString(l, i) + asString(r, i))
	}
	return out, nil
}

func asString(v *Vector, i int) string {
	if v.Type() == String {
		return v.StringAt(i)
	}
	return fmt.Sprint(v.Value(i))
}

// evalCall dispatches scalar functions.
func evalCall(x *Call, t *Table) (*Vector, error) {
	name := strings.ToLower(x.Name)
	if name == "coalesce" {
		return evalCoalesce(x.Args, t)
	}
	args := make([]*Vector, len(x.Args))
	for i, a := range x.Args {
		v, err := Eval(a, t)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch name {
	case "abs", "sqrt", "ln", "log", "exp", "floor", "ceil", "round":
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: %s takes 1 argument", name)
		}
		return mathUnary(name, args[0])
	case "pow", "power":
		if len(args) != 2 {
			return nil, fmt.Errorf("engine: pow takes 2 arguments")
		}
		return mathPow(args[0], args[1])
	case "lower", "upper", "trim":
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: %s takes 1 argument", name)
		}
		return strUnary(name, args[0])
	case "length":
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: length takes 1 argument")
		}
		v := args[0]
		out := make([]int64, v.Len())
		for i := range out {
			if !v.IsNull(i) {
				out[i] = int64(len(asString(v, i)))
			}
		}
		return NewInt64Vector(out, v.Valid()), nil
	case "cast_double":
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: cast takes 1 argument")
		}
		return args[0].CastFloat64(), nil
	}
	return nil, fmt.Errorf("engine: unknown function %q", x.Name)
}

func evalCoalesce(argExprs []Expr, t *Table) (*Vector, error) {
	if len(argExprs) == 0 {
		return nil, fmt.Errorf("engine: coalesce needs arguments")
	}
	args := make([]*Vector, len(argExprs))
	for i, a := range argExprs {
		v, err := Eval(a, t)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	out := NewVector(args[0].Type())
	n := args[0].Len()
	for i := 0; i < n; i++ {
		appended := false
		for _, a := range args {
			if !a.IsNull(i) {
				if err := out.AppendValue(a.Value(i)); err != nil {
					return nil, err
				}
				appended = true
				break
			}
		}
		if !appended {
			out.AppendNull()
		}
	}
	return out, nil
}

func mathUnary(name string, v *Vector) (*Vector, error) {
	f := v.CastFloat64()
	n := f.Len()
	out := make([]float64, n)
	valid := f.Valid().Clone()
	in := f.Float64s()
	var fn func(float64) float64
	switch name {
	case "abs":
		fn = math.Abs
	case "sqrt":
		fn = math.Sqrt
	case "ln", "log":
		fn = math.Log
	case "exp":
		fn = math.Exp
	case "floor":
		fn = math.Floor
	case "ceil":
		fn = math.Ceil
	case "round":
		fn = math.Round
	}
	for i := range out {
		out[i] = fn(in[i])
	}
	// Domain errors become NULL.
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if valid == nil {
				valid = NewBitmap(n)
			}
			if !f.IsNull(i) && !math.IsNaN(in[i]) {
				valid.Set(i, false)
			}
		}
	}
	return NewFloat64Vector(out, valid), nil
}

func mathPow(a, b *Vector) (*Vector, error) {
	af, bf := a.CastFloat64(), b.CastFloat64()
	n := af.Len()
	out := make([]float64, n)
	valid := mergeValid(af.Valid(), bf.Valid(), n)
	x, y := af.Float64s(), bf.Float64s()
	for i := range out {
		out[i] = math.Pow(x[i], y[i])
	}
	return NewFloat64Vector(out, valid), nil
}

func strUnary(name string, v *Vector) (*Vector, error) {
	if v.Type() != String {
		return nil, fmt.Errorf("engine: %s requires a string argument", name)
	}
	out := NewVector(String)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		s := v.StringAt(i)
		switch name {
		case "lower":
			s = strings.ToLower(s)
		case "upper":
			s = strings.ToUpper(s)
		case "trim":
			s = strings.TrimSpace(s)
		}
		out.AppendString(s)
	}
	return out, nil
}

// FilterSel evaluates a boolean predicate over t and returns the selection
// vector of matching rows (true AND valid).
func FilterSel(pred Expr, t *Table) ([]int32, error) {
	v, err := Eval(pred, t)
	if err != nil {
		return nil, err
	}
	if v.Type() != Bool {
		return nil, fmt.Errorf("engine: WHERE predicate must be boolean, got %v", v.Type())
	}
	sel := make([]int32, 0, v.Len())
	bs := v.Bools()
	for i := 0; i < v.Len(); i++ {
		if bs[i] && !v.IsNull(i) {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}
