// Package expr implements the scalar expression layer of the compliant
// geo-distributed query processor: typed values, expression trees,
// evaluation against rows, and the logical implication test used by the
// policy evaluator (Section 5 of the paper).
package expr

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Type identifies the runtime type of a Value.
type Type int

// The supported scalar types. TNull is the type of the SQL NULL literal;
// every other type may still hold a NULL value (IsNull reports it).
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
	TDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INTEGER"
	case TFloat:
		return "DOUBLE"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOLEAN"
	case TDate:
		return "DATE"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool { return t == TInt || t == TFloat || t == TDate }

// Value is a scalar runtime value. It is a small tagged union: integers,
// booleans and dates live in I, floats in F, and strings in S. The zero
// Value is NULL.
type Value struct {
	T    Type
	Null bool
	I    int64 // TInt; TBool (0/1); TDate (days since 1970-01-01)
	F    float64
	S    string
}

// Null values and constructors.

// NullValue returns the untyped NULL value.
func NullValue() Value { return Value{T: TNull, Null: true} }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{T: TInt, I: v} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{T: TFloat, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{T: TString, S: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{T: TBool, I: i}
}

// NewDate returns a DATE value holding days since the Unix epoch.
func NewDate(days int64) Value { return Value{T: TDate, I: days} }

// TypedNull returns a NULL value carrying type information.
func TypedNull(t Type) Value { return Value{T: t, Null: true} }

// epoch is the zero day for DATE values.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate parses a YYYY-MM-DD literal into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NullValue(), fmt.Errorf("expr: invalid date literal %q: %w", s, err)
	}
	return NewDate(int64(t.Sub(epoch).Hours() / 24)), nil
}

// MustDate parses a YYYY-MM-DD literal and panics on failure. Intended for
// tests and statically known literals.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null || v.T == TNull }

// Bool returns the boolean held by the value. It is only meaningful for
// TBool values.
func (v Value) Bool() bool { return v.T == TBool && !v.Null && v.I != 0 }

// Int returns the integer held by the value.
func (v Value) Int() int64 { return v.I }

// Float returns the value coerced to float64. Integers and dates widen;
// other types return 0.
func (v Value) Float() float64 {
	switch v.T {
	case TFloat:
		return v.F
	case TInt, TDate, TBool:
		return float64(v.I)
	}
	return 0
}

// Str returns the string held by the value.
func (v Value) Str() string { return v.S }

// String renders the value as a SQL literal.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.T {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return "'" + v.S + "'"
	case TBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case TDate:
		return "DATE '" + epoch.AddDate(0, 0, int(v.I)).Format("2006-01-02") + "'"
	}
	return "?"
}

// comparable reports whether two types can be ordered against each other.
func comparable(a, b Type) bool {
	if a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}

// Compare orders two values. It returns -1, 0 or +1, and an error when the
// values are incomparable. NULLs are incomparable; callers must handle
// NULL semantics before ordering.
func (v Value) Compare(o Value) (int, error) {
	if v.IsNull() || o.IsNull() {
		return 0, fmt.Errorf("expr: cannot compare NULL values")
	}
	if !comparable(v.T, o.T) {
		return 0, fmt.Errorf("expr: cannot compare %s with %s", v.T, o.T)
	}
	switch {
	case v.T == TString:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		}
		return 0, nil
	case v.T == TBool:
		switch {
		case v.I < o.I:
			return -1, nil
		case v.I > o.I:
			return 1, nil
		}
		return 0, nil
	case v.T == TFloat || o.T == TFloat:
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	default: // TInt / TDate cross-comparisons stay in integer space
		switch {
		case v.I < o.I:
			return -1, nil
		case v.I > o.I:
			return 1, nil
		}
		return 0, nil
	}
}

// Equal reports deep equality of two values, treating NULL = NULL as true
// (structural equality, not SQL three-valued equality).
func (v Value) Equal(o Value) bool {
	if v.IsNull() && o.IsNull() {
		return true
	}
	if v.IsNull() != o.IsNull() {
		return false
	}
	if !comparable(v.T, o.T) {
		return false
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// Width returns the estimated encoded width of the value in bytes; it
// feeds the shipping-cost accounting of the message cost model.
func (v Value) Width() int {
	switch v.T {
	case TString:
		return len(v.S) + 4
	case TBool:
		return 1
	default:
		return 8
	}
}

// Hash returns a 64-bit hash of the value, used by hash joins and hash
// aggregation. Values that compare equal hash equally (ints, dates and
// integral floats coincide in float space).
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	if v.IsNull() {
		mix(0xff)
		return h
	}
	switch v.T {
	case TString:
		for i := 0; i < len(v.S); i++ {
			mix(v.S[i])
		}
	case TBool:
		mix(byte(v.I & 1))
	default:
		// Hash numerics through float64 so 1 (int) == 1.0 (float), and
		// -0.0 as 0.0: Compare orders them equal.
		f := v.Float()
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			mix(byte(bits >> (8 * i)))
		}
	}
	return h
}
