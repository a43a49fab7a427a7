package vet

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The seeded-violation corpus is a self-contained mini-module sharing the
// real module path, so every type-identity match (obs.Span, relation.Batch,
// engines.Engine) exercises the same code path as a run on the real tree.
// Each rule has at least one violation file and one _clean.go file; the
// golden files pin the exact diagnostics, witness chains included.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/vet/golden")

const (
	corpusDir = "../../testdata/vet/src"
	brokenDir = "../../testdata/vet/broken"
	cleanDir  = "../../testdata/vet/clean"
	goldenDir = "../../testdata/vet/golden"
)

// corpusState caches the full-rule corpus run: loading re-type-checks the
// standard library, so every test sharing the default options shares it.
var corpusState struct {
	once sync.Once
	rep  *Report
	err  error
}

func corpusReport(t *testing.T) *Report {
	t.Helper()
	corpusState.once.Do(func() {
		corpusState.rep, corpusState.err = Run(Options{Dir: corpusDir})
	})
	if corpusState.err != nil {
		t.Fatalf("Run(%s): %v", corpusDir, corpusState.err)
	}
	return corpusState.rep
}

func TestGoldenDiagnostics(t *testing.T) {
	rep := corpusReport(t)
	byRule := map[string][]string{}
	for _, d := range rep.Diags {
		byRule[d.Rule] = append(byRule[d.Rule], d.String())
	}

	rules := append(RuleNames(), "suppression")
	covered := 0
	for _, rule := range rules {
		t.Run(rule, func(t *testing.T) {
			got := ""
			if lines := byRule[rule]; len(lines) > 0 {
				got = strings.Join(lines, "\n") + "\n"
			}
			golden := filepath.Join(goldenDir, rule+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with `go test ./internal/vet -run TestGoldenDiagnostics -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
			if got == "" {
				t.Errorf("corpus seeds no %s violation: every rule needs at least one", rule)
			}
			covered += len(byRule[rule])
		})
	}
	if !*update && covered != len(rep.Diags) {
		t.Errorf("corpus produced diagnostics outside the registered rules: %d of %d covered", covered, len(rep.Diags))
	}
}

// Every _clean.go file seeds the near-miss shape of its rule (aliased
// receivers, contained fork-join, deferred releases): a finding in one is
// a false positive.
func TestCleanFilesStayClean(t *testing.T) {
	rep := corpusReport(t)
	for _, d := range rep.Diags {
		if strings.Contains(path.Base(d.File), "_clean") {
			t.Errorf("false positive in clean corpus file: %s", d)
		}
	}
}

// Acceptance seed 1: the span in span_branch.go IS ended on the happy path
// — the old syntactic rule (require some .End() in the function) passes
// it; only the CFG walk sees the leaking early return.
func TestBranchDependentSpanLeak(t *testing.T) {
	rep := corpusReport(t)
	src, err := os.ReadFile(filepath.Join(corpusDir, "internal/core/span_branch.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(src, []byte("sp.End()")) {
		t.Fatal("corpus drifted: span_branch.go must end its span on the happy path")
	}
	for _, d := range rep.Diags {
		if d.Rule == "span-leak" && d.File == "internal/core/span_branch.go" &&
			strings.Contains(d.Message, "is not ended on the path leaving at line") {
			return
		}
	}
	t.Fatal("no span-leak finding for the branch-dependent leak in span_branch.go")
}

// Acceptance seed 2: the clock behind FusedStamp is two calls away in a
// package the old linter's import scan never visited; the finding must
// carry the full witness chain.
func TestTransitiveDeterminismChain(t *testing.T) {
	rep := corpusReport(t)
	for _, d := range rep.Diags {
		if d.Rule != "determinism" || len(d.Chain) < 3 {
			continue
		}
		if d.Chain[0].Func == "musketeer/internal/exec.FusedStamp" && strings.Contains(d.Message, "(2 hops)") {
			return
		}
	}
	t.Fatal("no determinism finding with a >=2-hop witness chain rooted at FusedStamp")
}

func TestSuppressions(t *testing.T) {
	rep := corpusReport(t)
	var unused, malformed bool
	for _, d := range rep.Diags {
		if d.File == "internal/exec/suppressed.go" && d.Rule == "hot-path-keys" {
			t.Errorf("justified suppression did not fire: %s", d)
		}
		if d.Rule == "suppression" {
			if strings.Contains(d.Message, "unused mkvet:ignore for span-leak") {
				unused = true
			}
			if strings.Contains(d.Message, "malformed mkvet:ignore") {
				malformed = true
			}
			if d.Severity != SevWarn {
				t.Errorf("suppression-hygiene findings are warnings, got %s: %s", d.Severity, d)
			}
		}
	}
	if !unused {
		t.Error("stale mkvet:ignore was not reported as unused")
	}
	if !malformed {
		t.Error("reason-less mkvet:ignore was not reported as malformed")
	}
}

// A -rules run cannot tell a used suppression from an unused one, so it
// must not report staleness (malformed markers are always reported).
func TestRuleFilter(t *testing.T) {
	rep, err := Run(Options{Dir: corpusDir, Rules: []string{"lock-discipline"}})
	if err != nil {
		t.Fatal(err)
	}
	locks := 0
	for _, d := range rep.Diags {
		switch d.Rule {
		case "lock-discipline":
			locks++
		case "suppression":
			if strings.Contains(d.Message, "unused") {
				t.Errorf("filtered run reported an unused suppression: %s", d)
			}
		default:
			t.Errorf("filtered run leaked rule %s: %s", d.Rule, d)
		}
	}
	if locks != 2 {
		t.Errorf("lock-discipline found %d violations in the corpus, want 2", locks)
	}
}

// Scoping restricts reporting, not analysis: a ./internal/core/... run
// still type-checks and traverses the whole module.
func TestScopedRun(t *testing.T) {
	rep, err := Run(Options{Dir: corpusDir, Scope: []string{"internal/core"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) == 0 {
		t.Fatal("scoped run reported nothing for internal/core")
	}
	for _, d := range rep.Diags {
		if !strings.HasPrefix(d.File, "internal/core/") {
			t.Errorf("scoped run leaked a finding outside internal/core: %s", d)
		}
	}
}

func TestBrokenTree(t *testing.T) {
	_, err := Run(Options{Dir: brokenDir})
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("broken module: want *LoadError, got %v", err)
	}
	if len(le.Errs) == 0 {
		t.Fatal("LoadError carries no messages")
	}
}

// inDir runs fn with the working directory switched to dir (CLIMain
// resolves the module from ".").
func inDir(t *testing.T, dir string, fn func()) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name string
		dir  string
		args []string
		want int
	}{
		{"findings", corpusDir, nil, ExitFindings},
		{"broken", brokenDir, nil, ExitBroken},
		{"clean", cleanDir, nil, ExitClean},
		{"unknown-rule", cleanDir, []string{"-rules", "no-such-rule"}, ExitBroken},
		{"bad-pattern", cleanDir, []string{"internal/.../deep"}, ExitBroken},
		{"list", cleanDir, []string{"-list"}, ExitClean},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			code := -1
			inDir(t, tc.dir, func() { code = CLIMain(tc.args, &out, &errBuf) })
			if code != tc.want {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.want, out.String(), errBuf.String())
			}
		})
	}
}

func TestCLIJSONReport(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := -1
	inDir(t, corpusDir, func() { code = CLIMain([]string{"-json"}, &out, &errBuf) })
	if code != ExitFindings {
		t.Fatalf("exit code %d, want %d (stderr: %s)", code, ExitFindings, errBuf.String())
	}
	var rep struct {
		Module      string         `json:"module"`
		Findings    int            `json:"findings"`
		ByRule      map[string]int `json:"by_rule"`
		Diagnostics []Diagnostic   `json:"diagnostics"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if rep.Module != "musketeer" {
		t.Errorf("module %q, want musketeer", rep.Module)
	}
	if rep.Findings != len(rep.Diagnostics) {
		t.Errorf("findings %d != %d diagnostics", rep.Findings, len(rep.Diagnostics))
	}
	sum := 0
	for _, n := range rep.ByRule {
		sum += n
	}
	if sum != rep.Findings {
		t.Errorf("by_rule sums to %d, want %d", sum, rep.Findings)
	}
}

func TestPatternScope(t *testing.T) {
	cases := []struct {
		pat   string
		scope string
		ok    bool
	}{
		{"./...", "", true},
		{".", "", true},
		{"./internal/core/...", "internal/core", true},
		{"./internal/core", "internal/core", true},
		{"internal/core/...", "internal/core", true},
		{"../elsewhere", "", false},
		{"internal/.../deep", "", false},
	}
	for _, tc := range cases {
		scope, ok := patternScope(tc.pat)
		if scope != tc.scope || ok != tc.ok {
			t.Errorf("patternScope(%q) = %q,%v want %q,%v", tc.pat, scope, ok, tc.scope, tc.ok)
		}
	}
}
