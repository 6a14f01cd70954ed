package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/soak"
)

// goldenDoc is a fully populated Doc exercising every field of the
// -json schema, including the optional error string and a
// multi-table experiment.
func goldenDoc() Doc {
	return Doc{
		Generated: "2026-08-07T00:00:00Z",
		Provenance: Provenance{
			GoVersion: "go1.24.0",
			OS:        "linux",
			Arch:      "amd64",
			NumCPU:    8,
			GitSHA:    "deadbeefcafe",
		},
		Procs:      4,
		DurationMS: 12.5,
		Quick:      true,
		Seed:       0x5eed,
		Failed:     1,
		Experiment: []ExperimentResult{
			{
				ID: "E21", Title: "scenario suite", Claim: "regime-dependent",
				Passed: true, DurationMS: 250.75,
				Tables: []TableResult{
					{
						Caption: "E21 scenario suite",
						Headers: []string{"scenario", "backend", "ops/s"},
						Rows: [][]string{
							{"steady-mixed", "stack/treiber", "123456.7"},
							{"steady-mixed", "stack/sensitive", "98765.4"},
						},
					},
					{
						Caption: "E21 extra",
						Headers: []string{"k", "v"},
						Rows:    [][]string{{"a", "1"}},
					},
				},
			},
			{
				ID: "E1", Title: "conservation", Claim: "no loss",
				Passed: false, Error: "stack/weak lost 1 element",
				DurationMS: 3.25,
				Tables:     nil,
			},
		},
	}
}

// golden is the exact serialized form of goldenDoc. Pinning the bytes
// pins the schema: committed BENCH_*.json files and cmd/slogate both
// depend on these field names and shapes, so renaming or retyping a
// field fails this test before it silently breaks a consumer. New
// fields may be appended — update the golden text when they are.
const golden = `{
  "generated": "2026-08-07T00:00:00Z",
  "provenance": {
    "go_version": "go1.24.0",
    "os": "linux",
    "arch": "amd64",
    "num_cpu": 8,
    "git_sha": "deadbeefcafe"
  },
  "procs": 4,
  "duration_ms": 12.5,
  "quick": true,
  "seed": 24301,
  "failed": 1,
  "experiments": [
    {
      "id": "E21",
      "title": "scenario suite",
      "claim": "regime-dependent",
      "passed": true,
      "duration_ms": 250.75,
      "tables": [
        {
          "caption": "E21 scenario suite",
          "headers": [
            "scenario",
            "backend",
            "ops/s"
          ],
          "rows": [
            [
              "steady-mixed",
              "stack/treiber",
              "123456.7"
            ],
            [
              "steady-mixed",
              "stack/sensitive",
              "98765.4"
            ]
          ]
        },
        {
          "caption": "E21 extra",
          "headers": [
            "k",
            "v"
          ],
          "rows": [
            [
              "a",
              "1"
            ]
          ]
        }
      ]
    },
    {
      "id": "E1",
      "title": "conservation",
      "claim": "no loss",
      "passed": false,
      "error": "stack/weak lost 1 element",
      "duration_ms": 3.25,
      "tables": null
    }
  ]
}
`

// TestDocGoldenRoundTrip pins the -json document schema: the golden
// bytes must encode exactly, decode back to a deeply equal value, and
// survive a WriteFile/ReadDoc disk round trip.
func TestDocGoldenRoundTrip(t *testing.T) {
	doc := goldenDoc()

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw) + "\n"; got != golden {
		t.Fatalf("Doc JSON schema drifted from golden.\ngot:\n%s\nwant:\n%s", got, golden)
	}

	var back Doc
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, doc) {
		t.Fatalf("decode(golden) != original:\ngot  %+v\nwant %+v", back, doc)
	}

	path := filepath.Join(t.TempDir(), "golden.json")
	if err := doc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != golden {
		t.Fatalf("WriteFile bytes drifted from golden:\n%s", onDisk)
	}
	fromDisk, err := ReadDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDisk, doc) {
		t.Fatalf("ReadDoc(WriteFile(doc)) != doc:\ngot  %+v\nwant %+v", fromDisk, doc)
	}
}

func TestDocFindHelpers(t *testing.T) {
	doc := goldenDoc()
	exp, ok := doc.FindExperiment("E21")
	if !ok || exp.ID != "E21" {
		t.Fatalf("FindExperiment(E21) = %+v, %v", exp, ok)
	}
	if _, ok := doc.FindExperiment("E99"); ok {
		t.Fatal("FindExperiment found a nonexistent id")
	}
	table, ok := exp.FindTable("E21 scenario suite")
	if !ok || len(table.Rows) != 2 {
		t.Fatalf("FindTable = %+v, %v", table, ok)
	}
	if _, ok := exp.FindTable("nope"); ok {
		t.Fatal("FindTable found a nonexistent caption")
	}
}

func TestCollectProvenance(t *testing.T) {
	t.Setenv("GITHUB_SHA", "")
	t.Setenv("GIT_SHA", "abc123")
	p := CollectProvenance()
	if p.GitSHA != "abc123" {
		t.Fatalf("GitSHA = %q, want GIT_SHA fallback", p.GitSHA)
	}
	if !strings.HasPrefix(p.GoVersion, "go") || p.NumCPU < 1 || p.OS == "" || p.Arch == "" {
		t.Fatalf("implausible provenance: %+v", p)
	}
	t.Setenv("GIT_SHA", "")
	// With no env override the stamp comes from `git rev-parse HEAD`
	// (the local-soak-artifact path); only with git unavailable too
	// does it degrade to "unknown".
	if head := gitHeadSHA(); head != "" {
		if p := CollectProvenance(); p.GitSHA != head {
			t.Fatalf("GitSHA with no env = %q, want git HEAD %q", p.GitSHA, head)
		}
	} else if p := CollectProvenance(); p.GitSHA != "unknown" {
		t.Fatalf("GitSHA with no env and no git = %q, want unknown", p.GitSHA)
	}
	t.Setenv("GITHUB_SHA", "ci-sha")
	if p := CollectProvenance(); p.GitSHA != "ci-sha" {
		t.Fatalf("GitSHA = %q, want GITHUB_SHA to win", p.GitSHA)
	}
}

func TestGitHeadSHAShape(t *testing.T) {
	// Whatever git answers (or doesn't), the helper only ever returns
	// the empty string or a full 40-hex sha — never an error message.
	sha := gitHeadSHA()
	if sha == "" {
		t.Skip("git unavailable here; the empty-string path is the result")
	}
	if len(sha) != 40 {
		t.Fatalf("gitHeadSHA = %q, not 40 chars", sha)
	}
	for _, c := range sha {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("gitHeadSHA = %q, not lowercase hex", sha)
		}
	}
}

// TestRowSchemasMatchCommittedPoints is the schema pin for each gated
// suite: the committed trajectory point's table must decode into the
// suite's row type and re-render through metrics.TableOf with exactly
// the committed headers and cells, so a renamed, reordered, or
// re-formatted column fails here before it fails cmd/slogate.
func TestRowSchemasMatchCommittedPoints(t *testing.T) {
	for _, c := range []struct {
		exp, caption string
		reencode     func(TableResult) (*metrics.Table, error)
	}{
		{"E21", e21Caption, reencode[scenario.Row]},
		{"E22", e22Caption, reencode[scenario.CrashRow]},
		{"E23", e23Caption, reencode[scenario.AdaptiveRow]},
		{"E24", e24Caption, reencode[soak.Row]},
	} {
		doc, err := ReadDoc(filepath.Join("..", "..", "BENCH_"+c.exp+".json"))
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := doc.FindExperiment(c.exp)
		committed, ok := rec.FindTable(c.caption)
		if !ok {
			t.Fatalf("BENCH_%s.json has no %q table", c.exp, c.caption)
		}
		tb, err := c.reencode(committed)
		if err != nil {
			t.Fatalf("%s: %v", c.exp, err)
		}
		if !reflect.DeepEqual(tb.Headers(), committed.Headers) {
			t.Errorf("%s: row type renders headers %v, committed point has %v", c.exp, tb.Headers(), committed.Headers)
		}
		if !reflect.DeepEqual(tb.Rows(), committed.Rows) {
			t.Errorf("%s: re-rendered cells differ from the committed point", c.exp)
		}
	}
}

func reencode[T any](table TableResult) (*metrics.Table, error) {
	rows, err := metrics.ParseRows[T](table.Headers, table.Rows)
	return metrics.TableOf(rows), err
}
