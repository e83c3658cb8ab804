package report

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runtimeRow matches Table 2b's mean-runtime row, the one wall-clock
// measurement in the report; every other line is a pure function of the
// seed.
var runtimeRow = regexp.MustCompile(`(?m)^Runtime +\S+ +3175\.38 \(sic\)$`)

func maskRuntime(s string) string {
	return runtimeRow.ReplaceAllString(s, "Runtime <wall clock>")
}

// TestSeed1ReportGolden rebuilds the seed-1 paper report with the
// workload-report defaults and compares it byte for byte with the
// committed report_seed1.txt, so any change that moves a paper number
// fails here instead of drifting silently. Regenerate the file with
// `go run ./cmd/workload-report -seed 1 > report_seed1.txt` and explain
// the move in EXPERIMENTS.md.
func TestSeed1ReportGolden(t *testing.T) {
	want, err := os.ReadFile("../../report_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(Config{Seed: 1, SQLShareQueries: 2000, SQLShareUsers: 60, SDSSQueries: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.WriteAll(&buf)
	got, exp := maskRuntime(buf.String()), maskRuntime(string(want))
	if !runtimeRow.Match(want) {
		t.Fatal("report_seed1.txt has no Table 2b runtime row to mask")
	}
	if got == exp {
		return
	}
	gl, el := strings.Split(got, "\n"), strings.Split(exp, "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(el); i++ {
		var g, e string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(el) {
			e = el[i]
		}
		if g != e {
			t.Errorf("line %d:\n  report_seed1.txt: %q\n  rebuilt:          %q", i+1, e, g)
			if shown++; shown == 10 {
				break
			}
		}
	}
	t.Fatalf("seed-1 report drifted from report_seed1.txt (%d vs %d lines)", len(gl), len(el))
}
