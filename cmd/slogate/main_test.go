package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenVerdicts pins slogate -all over the committed trajectory
// points byte for byte: the verdict table and the returned error must
// not move when the row schema or its codec is refactored. After a
// deliberate change to a gate or to a committed BENCH_E2x.json,
// regenerate a golden from this directory with
//
//	go run . -exp E21 -all ../../BENCH_E21.json > testdata/E21.golden
//
// and update wantErr to the error printed on stderr.
func TestGoldenVerdicts(t *testing.T) {
	for _, c := range []struct{ exp, wantErr string }{
		// The E21 and E22 points predate the adaptive tier, so their
		// coverage gates fail for {stack,queue,set}/adaptive. They also
		// carry rows of queue/combining-pooled, since folded into
		// queue/combining: E22's classification gate finds no catalog
		// entry for them and fails its three scenarios.
		{"E21", "8 of 758 gates failed"},
		{"E22", "6 of 363 gates failed"},
		{"E23", ""},
		{"E24", ""},
	} {
		t.Run(c.exp, func(t *testing.T) {
			var buf bytes.Buffer
			gotErr := ""
			if err := run(filepath.Join("..", "..", "BENCH_"+c.exp+".json"), c.exp, true, &buf); err != nil {
				gotErr = err.Error()
			}
			if gotErr != c.wantErr {
				t.Errorf("run error = %q, want %q", gotErr, c.wantErr)
			}
			golden := filepath.Join("testdata", c.exp+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("slogate -exp %s -all output differs from %s:\n%s", c.exp, golden, buf.String())
			}
		})
	}
}
