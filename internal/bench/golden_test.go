package bench

// The paper's tables as a golden: every experiment of All(), rendered with
// Table.Fprint in paper order, must equal bench_results.txt byte for byte,
// except fig13's two real-wall-clock columns. A change that moves one
// simulated number of the evaluation fails here. Regenerate with
//
//	go test ./internal/bench -run TestPaperTablesGolden -update

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite bench_results.txt from the current experiments")

const paperTablesPath = "../../bench_results.txt"

func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	if raceBuild {
		t.Skip("runs every experiment; the race detector adds nothing to a serial table run")
	}
	var b strings.Builder
	for _, e := range All() {
		table, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		table.Fprint(&b)
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(paperTablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(paperTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(maskWallClock(got), "\n")
	wantLines := strings.Split(maskWallClock(string(data)), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("bench_results.txt line %d differs (rerun with -update if the change is intended):\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// maskWallClock blanks fig13's timing cells, which are real wall-clock
// time: each row keeps its operator count, and the header's spacing is
// collapsed because the column widths follow the timings. The title and the
// note are kept as they are.
func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	inFig13, header := false, false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "== "):
			inFig13 = strings.HasPrefix(line, "== fig13:")
			header = inFig13
		case !inFig13 || strings.HasPrefix(line, "   note: "):
		case header:
			lines[i] = strings.Join(strings.Fields(line), " ")
			header = false
		default:
			if f := strings.Fields(line); len(f) > 0 {
				lines[i] = f[0] + " <wall-clock>"
			}
		}
	}
	return strings.Join(lines, "\n")
}
