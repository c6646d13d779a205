// Package tdb implements the temporal database the mining system runs
// against: typed relational tables (the substitute for the Oracle
// tables the paper's IQMS prototype queried) and a time-partitioned
// transaction table that the temporal miners scan granule by granule.
// Tables persist to a simple checksummed binary format.
package tdb

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the column types the database supports.
type Kind int

// The supported kinds. KindNull is the type of the SQL NULL literal and
// of missing values.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

var kindNames = [...]string{"null", "int", "float", "string", "bool", "time"}

// String returns the lowercase type name used in CREATE TABLE.
func (k Kind) String() string {
	if k < KindNull || k > KindTime {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind parses a type name from CREATE TABLE.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "int", "integer", "bigint":
		return KindInt, nil
	case "float", "double", "real", "number":
		return KindFloat, nil
	case "string", "text", "varchar", "varchar2":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	case "time", "timestamp", "date", "datetime":
		return KindTime, nil
	default:
		return 0, fmt.Errorf("tdb: unknown type %q", s)
	}
}

// Value is a dynamically typed cell. The zero value is NULL.
type Value struct {
	K Kind
	i int64
	f float64
	s string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{K: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{K: KindFloat, f: v} }

// Str wraps a string.
func Str(v string) Value { return Value{K: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{K: KindBool, i: i}
}

// Time wraps an instant (stored as Unix nanoseconds, UTC).
func Time(v time.Time) Value { return Value{K: KindTime, i: v.UTC().UnixNano()} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsInt returns the integer payload; valid for KindInt and KindBool.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload of an int or float as float64.
func (v Value) AsFloat() float64 {
	if v.K == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.i != 0 }

// AsTime returns the instant payload.
func (v Value) AsTime() time.Time { return time.Unix(0, v.i).UTC() }

// Numeric reports whether v is an int or float.
func (v Value) Numeric() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values. NULL sorts before everything; numeric
// kinds compare by value across int/float; otherwise kinds must match
// or an error is returned.
func (v Value) Compare(o Value) (int, error) {
	switch {
	case v.IsNull() && o.IsNull():
		return 0, nil
	case v.IsNull():
		return -1, nil
	case o.IsNull():
		return 1, nil
	}
	if v.Numeric() && o.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.K != o.K {
		return 0, fmt.Errorf("tdb: cannot compare %v with %v", v.K, o.K)
	}
	switch v.K {
	case KindString:
		return strings.Compare(v.s, o.s), nil
	case KindBool, KindTime:
		switch {
		case v.i < o.i:
			return -1, nil
		case v.i > o.i:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("tdb: cannot compare values of kind %v", v.K)
	}
}

// Equal reports whether the values compare equal; incomparable values
// are unequal.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// String renders the value as SQL-ish text: Display, with strings and
// times quoted.
func (v Value) String() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "'" + v.Display() + "'"
	default:
		return v.Display()
	}
}

// Display renders the value for result tables: like String but without
// quoting strings.
func (v Value) Display() string {
	if v.K == KindString {
		return v.s
	}
	return string(v.AppendDisplay(nil))
}

// AppendDisplay appends v's Display form to b: the one cell renderer,
// which result encoders call per cell without a string in between.
func (v Value) AppendDisplay(b []byte) []byte {
	switch v.K {
	case KindNull:
		return append(b, "NULL"...)
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	case KindString:
		return append(b, v.s...)
	case KindBool:
		if v.i != 0 {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	case KindTime:
		return v.AsTime().AppendFormat(b, "2006-01-02 15:04:05")
	default:
		return fmt.Appendf(b, "Value(kind=%d)", int(v.K))
	}
}
