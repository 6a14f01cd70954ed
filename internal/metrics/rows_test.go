package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// codecRow carries one field of every supported kind.
type codecRow struct {
	Name    string        `col:"name"`
	Rerun   int           `col:"rerun"`
	Ops     uint64        `col:"ops"`
	Rate    float64       `col:"ops/s"`
	P99     time.Duration `col:"p99 ns"`
	Pool    int64         `col:"pool-allocs"`
	Comment string        // untagged: not a column
}

func TestRowCodec(t *testing.T) {
	headers := []string{"name", "rerun", "ops", "ops/s", "p99 ns", "pool-allocs"}
	rows := []codecRow{
		{Name: "stack/treiber", Rerun: 1, Ops: 2400, Rate: 123456.789, P99: 40 * time.Microsecond, Pool: 1234},
		{Name: "FAIL: key 3: 5 removes vs 4 adds", Ops: 1 << 63, Rate: 0.5, Pool: -1},
	}
	cases := []struct {
		name    string
		headers []string
		cells   [][]string
		want    []codecRow
		wantErr []string // substrings the error must contain; nil = success
	}{{
		name:    "round trip of every kind, negative int64 included",
		headers: headers,
		cells: [][]string{
			{"stack/treiber", "1", "2400", "123456.789", "40000", "1234"},
			{"FAIL: key 3: 5 removes vs 4 adds", "0", "9223372036854775808", "0.500", "0", "-1"},
		},
		want: rows,
	}, {
		name:    "missing column",
		headers: []string{"name", "rerun", "ops/s", "p99 ns", "pool-allocs"},
		cells:   [][]string{{"x", "1", "1.000", "1", "1"}},
		wantErr: []string{`"ops"`},
	}, {
		name:    "extra columns ignored",
		headers: []string{"procs", "name", "rerun", "ops", "ops/s", "p99 ns", "pool-allocs", "note"},
		cells:   [][]string{{"8", "stack/treiber", "1", "2400", "123456.789", "40000", "1234", "extra"}},
		want:    rows[:1],
	}, {
		name:    "bad cell",
		headers: headers,
		cells: [][]string{
			{"a", "0", "1", "1.000", "1", "1"},
			{"b", "0", "-1", "1.000", "1", "1"},
		},
		wantErr: []string{"row 1", "ops"},
	}, {
		name:    "short row",
		headers: headers,
		cells:   [][]string{{"a", "0", "1"}},
		wantErr: []string{"row 0", "3 cells"},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParseRows[codecRow](c.headers, c.cells)
			if c.wantErr != nil {
				if err == nil {
					t.Fatalf("want an error naming %v, got rows %+v", c.wantErr, got)
				}
				for _, s := range c.wantErr {
					if !strings.Contains(err.Error(), s) {
						t.Fatalf("error %q does not name %s", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %+v, want %+v", got, c.want)
			}
			// Encoding the decoded rows renders exactly the row type's
			// columns; on the canonical header that is the input, cell
			// for cell.
			tb := TableOf(got)
			if !reflect.DeepEqual(tb.Headers(), headers) {
				t.Fatalf("TableOf headers %v, want %v", tb.Headers(), headers)
			}
			if reflect.DeepEqual(c.headers, headers) && !reflect.DeepEqual(tb.Rows(), c.cells) {
				t.Fatalf("TableOf cells %v, want %v", tb.Rows(), c.cells)
			}
		})
	}
}
