package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"musketeer"
)

func TestParseCluster(t *testing.T) {
	for _, tc := range []struct {
		spec string
		kind string
		n    int
	}{
		{"local:7", "local", 7},
		{"ec2:100", "ec2", 100},
		{"ec2:1", "ec2", 1},
		{"ec2:1O0", "", 0},
		{"ec:100", "", 0},
		{"ec2:0", "", 0},
		{"ec2:-3", "", 0},
		{"local", "", 0},
		{"local:", "", 0},
		{"", "", 0},
	} {
		kind, n, err := parseCluster(tc.spec)
		if tc.kind == "" {
			if err == nil || !strings.Contains(err.Error(), "-cluster") {
				t.Errorf("parseCluster(%q) = %s:%d, %v; want an error naming -cluster", tc.spec, kind, n, err)
			}
			continue
		}
		if err != nil || kind != tc.kind || n != tc.n {
			t.Errorf("parseCluster(%q) = %s:%d, %v; want %s:%d", tc.spec, kind, n, err, tc.kind, tc.n)
		}
	}
}

func TestParseWeights(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int
		bad  bool
	}{
		{in: "", want: nil},
		{in: "gold=4,silver=2", want: map[string]int{"gold": 4, "silver": 2}},
		{in: "gold", bad: true},
		{in: "gold=0", bad: true},
		{in: "gold=x", bad: true},
	} {
		got, err := parseWeights(tc.in)
		if (err != nil) != tc.bad || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseWeights(%q) = %v, %v; want %v (error %v)", tc.in, got, err, tc.want, tc.bad)
		}
	}
}

const maxPriceHive = `
SELECT id, street, town FROM properties AS locs;
locs JOIN prices ON locs.id = prices.id AS id_price;
SELECT street, town, MAX(price) AS max_price FROM id_price GROUP BY street AND town AS street_price;
`

// stageMaxPrice writes the max-price workflow and its two tables to a
// fresh directory and returns the flags that name them.
func stageMaxPrice(t *testing.T) []string {
	t.Helper()
	var props, prices strings.Builder
	props.WriteString("#schema\tid:int\tstreet:string\ttown:string\n#logical\t0\n")
	prices.WriteString("#schema\tid:int\tprice:float\n#logical\t0\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&props, "%d\tstreet%d\ttown%d\n", i, i%20, i%7)
		fmt.Fprintf(&prices, "%d\t%.2f\n", i, 1000+13.5*float64(i))
	}
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return []string{
		"-workflow", write("maxprice.hive", maxPriceHive),
		"-table", "properties=" + write("props.tsv", props.String()),
		"-table", "prices=" + write("prices.tsv", prices.String()),
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	orig := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = orig }()
	f()
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// evidence counts the observations folded into a calibration.
func evidence(snap musketeer.CalibrationSnapshot) int {
	n := 0
	for _, ec := range snap.Engines {
		n += ec.Samples
	}
	for _, sc := range snap.Selectivities {
		n += sc.Samples
	}
	return n
}

func TestCLIHistoryCarriesCalibration(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.json")
	args := append(stageMaxPrice(t), "-cluster", "ec2:100", "-history", hist)
	calibration := func() musketeer.CalibrationSnapshot {
		h, err := musketeer.LoadHistory(hist)
		if err != nil {
			t.Fatal(err)
		}
		return h.Calibration().Snapshot()
	}
	runOnce := func() {
		captureStdout(t, func() {
			if code := run("musketeer", args, false); code != 0 {
				t.Fatalf("run exited %d", code)
			}
		})
	}

	runOnce()
	first := calibration()
	if first.Version == 0 {
		t.Fatal("the first run saved no calibration into the history file")
	}
	runOnce()
	second := calibration()
	if second.Version < first.Version || evidence(second) <= evidence(first) {
		t.Fatalf("second run did not start from the first's calibration: version %d -> %d, evidence %d -> %d",
			first.Version, second.Version, evidence(first), evidence(second))
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"h.json"}) {
		t.Fatalf("history directory holds %v, want only h.json", names)
	}

	out := captureStdout(t, func() {
		if code := run("stats", []string{"-history", hist}, true); code != 0 {
			t.Fatalf("stats exited %d", code)
		}
	})
	if want := fmt.Sprintf("calibration (version %d):\n", second.Version); !strings.HasPrefix(out, want) {
		t.Fatalf("stats -history printed %q, want it to start with %q", out, want)
	}
}

func TestCLIStatsWithoutEvidence(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "missing.json")
	out := captureStdout(t, func() { run("stats", []string{"-history", hist}, true) })
	if want := "calibration: no feedback evidence (all rates at Table-1 seed)\n"; out != want {
		t.Fatalf("stats on an empty history printed %q, want %q", out, want)
	}
}

func TestCLICheckExitStatus(t *testing.T) {
	args := stageMaxPrice(t)
	broken := filepath.Join(t.TempDir(), "broken.hive")
	if err := os.WriteFile(broken, []byte("SELECT FROM;"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"valid", args, 0},
		{"unknown front-end", append([]string{"-frontend", "cobol"}, args...), 2},
		{"missing workflow", args[2:], 2},
		{"compile error", append([]string{"-workflow", broken}, args[2:]...), 1},
	} {
		var code int
		captureStdout(t, func() { code = runCheck(tc.args) })
		if code != tc.want {
			t.Errorf("%s: check exited %d, want %d", tc.name, code, tc.want)
		}
	}
}

// check -matrix prints what each standard engine can run, derived from its
// paradigm and profile; the table is pinned byte for byte, padding included.
func TestCLICheckMatrix(t *testing.T) {
	const want = "" +
		"engine       paradigm        operators  iteration    machines   shuffles \n" +
		"graphchi     vertex-centric  gas-only   native       single     unlimited\n" +
		"hadoop       mapreduce       all        driver       cluster    1/job    \n" +
		"metis        mapreduce       all        driver       single     1/job    \n" +
		"naiad        general         all        native       cluster    unlimited\n" +
		"powergraph   vertex-centric  gas-only   native       cluster    unlimited\n" +
		"serial       general         all        native       single     unlimited\n" +
		"spark        general         all        native       cluster    unlimited\n"
	var code int
	got := captureStdout(t, func() { code = runCheck([]string{"-matrix"}) })
	if code != 0 || got != want {
		t.Errorf("check -matrix exited %d and printed\n%q\nwant\n%q", code, got, want)
	}
}
