package metrics

import (
	"fmt"
	"reflect"
	"strconv"
)

// A row type is a struct whose exported fields carry `col:"name"` tags.
// Each tagged field is one column, in field order; untagged fields are
// not part of the table. Supported field kinds are string, the signed
// and unsigned integers (time.Duration included, as integer
// nanoseconds), and float64. The schema of a suite's table therefore
// lives in one struct definition: TableOf renders it and ParseRows
// decodes it, so the writer and the reader cannot drift apart.

// column is one tagged field of a row type.
type column struct {
	name  string
	field int
}

// columnsOf returns the tagged fields of the struct type t, in order.
// An unsupported field kind is a programming error and panics.
func columnsOf(t reflect.Type) []column {
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("col")
		if !ok {
			continue
		}
		if k := f.Type.Kind(); k != reflect.String && k != reflect.Float64 && (k < reflect.Int || k > reflect.Uint64) {
			panic(fmt.Sprintf("metrics: %s.%s: unsupported column kind %s", t, f.Name, k))
		}
		cols = append(cols, column{name, i})
	}
	return cols
}

// TableOf renders rows as a Table whose headers are T's column tags.
// Cells render exactly as AddRow renders them: %.3f for floats,
// decimal for integers (so a time.Duration is integer nanoseconds).
func TableOf[T any](rows []T) *Table {
	cols := columnsOf(reflect.TypeFor[T]())
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.name
	}
	tb := NewTable(headers...)
	cells := make([]interface{}, len(cols))
	for _, r := range rows {
		v := reflect.ValueOf(r)
		for i, c := range cols {
			f := v.Field(c.field)
			switch {
			case f.CanInt():
				cells[i] = f.Int()
			case f.CanUint():
				cells[i] = f.Uint()
			case f.CanFloat():
				cells[i] = f.Float()
			default:
				cells[i] = f.String()
			}
		}
		tb.AddRow(cells...)
	}
	return tb
}

// ParseRows decodes a rendered table (headers plus string cells, the
// shape a JSON export carries) into rows of T. Columns are resolved by
// name, so extra columns are ignored; a missing column is an error
// naming it, and so is a cell that does not parse as its field's kind.
func ParseRows[T any](headers []string, cells [][]string) ([]T, error) {
	t := reflect.TypeFor[T]()
	at := make(map[string]int, len(headers))
	for i, h := range headers {
		at[h] = i
	}
	cols := columnsOf(t)
	for _, c := range cols {
		if _, ok := at[c.name]; !ok {
			return nil, fmt.Errorf("metrics: %s table is missing column %q (have %v)", t, c.name, headers)
		}
	}
	out := make([]T, len(cells))
	for i, row := range cells {
		if len(row) != len(headers) {
			return nil, fmt.Errorf("metrics: %s row %d has %d cells, want %d", t, i, len(row), len(headers))
		}
		v := reflect.ValueOf(&out[i]).Elem()
		for _, c := range cols {
			s, f := row[at[c.name]], v.Field(c.field)
			var err error
			switch {
			case f.CanInt():
				var n int64
				n, err = strconv.ParseInt(s, 10, f.Type().Bits())
				f.SetInt(n)
			case f.CanUint():
				var n uint64
				n, err = strconv.ParseUint(s, 10, f.Type().Bits())
				f.SetUint(n)
			case f.CanFloat():
				var x float64
				x, err = strconv.ParseFloat(s, 64)
				f.SetFloat(x)
			default:
				f.SetString(s)
			}
			if err != nil {
				return nil, fmt.Errorf("metrics: %s row %d: bad %s %q", t, i, c.name, s)
			}
		}
	}
	return out, nil
}
