// Package vet is Musketeer's type-aware static-analysis framework. It
// grew out of cmd/mklint's syntactic AST scan: instead of matching token
// patterns, vet type-checks the whole module (go/ast + go/types + the
// toolchain importer — no dependencies), builds per-function control-flow
// graphs and a module-wide call graph, and runs dataflow passes over them.
// That is what lets it see through aliased imports, method values,
// transitive call chains, and branch-dependent paths that a purely
// syntactic linter provably cannot.
//
// The rules encode the code invariants the paper's correctness story rests
// on (deterministic cost estimation §5.2, decoupled front-/back-ends,
// merged-fragment execution) as they surfaced across PRs 1–6:
//
//   - determinism: no clock or randomness reachable from the kernels
//   - span-leak: every obs span is ended on every returning path
//   - context-discipline: blocking APIs accept and forward context
//   - lock-discipline: no lock held on a path out of a function
//   - scheduler-only-concurrency: goroutines belong to internal/sched
//     (bounded fork-join inside the data-parallel kernels excepted)
//   - arena-escape: batch-borrowed rows never outlive the pipeline
//   - hot-path-keys, engine-profile, stream-rows: the migrated mklint
//     rules, now resolved through go/types
//   - value-fields: relation.Value's content fields are written only by
//     internal/relation, so a cached text width can never go stale
//   - cost-formula: cluster.TransferTime is used only by the cost function
//     in internal/engines/cost.go, so a plan and a run are priced alike
//
// Findings are suppressed line-by-line with `//mkvet:ignore <rule>
// <reason>`; a reason is mandatory and stale suppressions are themselves
// findings. See DESIGN.md §12 for the invariant catalog.
package vet

import (
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Options configures one analysis run.
type Options struct {
	// Dir is any directory inside the module to analyze (the loader walks
	// up to go.mod). Empty means the current directory.
	Dir string
	// Rules restricts the run to the named rules; nil runs everything.
	Rules []string
	// Scope restricts *reported* findings to files under the given
	// module-relative directory prefixes (the CLI's ./... patterns).
	// Analysis is always whole-module — the call graph must be — so a
	// scoped run still sees transitive facts from elsewhere.
	Scope []string
}

// Report is the outcome of a Run that loaded successfully.
type Report struct {
	Module *Module
	Diags  []Diagnostic
}

// A rule pairs an invariant with the pass that proves it.
type rule struct {
	name     string
	doc      string
	severity Severity
	run      func(*pass)
}

// ruleTable is the registry, in documentation order. Adding a check means
// adding a row here plus its pass and its seeded violations under
// testdata/vet/ (see DESIGN.md §12).
var ruleTable = []rule{
	{"determinism", "no clock/randomness (transitively) reachable from kernel code", SevError, checkDeterminism},
	{"span-leak", "every obs span started in a function is ended on all returning paths", SevError, checkSpanLeak},
	{"context-discipline", "blocking exported APIs take and forward context; no context.Background outside cmd", SevError, checkContext},
	{"lock-discipline", "no mutex held on any path out of a function", SevError, checkLocks},
	{"scheduler-only-concurrency", "goroutines and WaitGroups outside internal/sched only as contained kernel fork-join", SevError, checkConcurrency},
	{"arena-escape", "rows borrowed from a relation.Batch must not be stored in fields or returned bare", SevError, checkArenaEscape},
	{"hot-path-keys", "no fmt string building or string concatenation in exec hot paths", SevError, checkHotPathKeys},
	{"engine-profile", "every engines.Engine literal registers a prof profile", SevError, checkEngineProfile},
	{"stream-rows", "streaming kernels pull batches, never materialized .Rows", SevError, checkStreamRows},
	{"value-fields", "relation.Value's Kind/I/F/S are assigned only inside internal/relation (a direct write would leave a stale cached width)", SevError, checkValueFields},
	{"cost-formula", "cluster.TransferTime is used only in internal/engines/cost.go (one cost function prices both a planned and an executed job)", SevError, checkCostFormula},
}

// RuleNames lists every registered rule in registry order.
func RuleNames() []string {
	out := make([]string, len(ruleTable))
	for i, r := range ruleTable {
		out[i] = r.name
	}
	return out
}

// RuleDoc returns the one-line invariant a rule proves ("" if unknown).
func RuleDoc(name string) string {
	for _, r := range ruleTable {
		if r.name == name {
			return r.doc
		}
	}
	return ""
}

// pass is the per-rule analysis context handed to each check.
type pass struct {
	m     *Module
	graph *CallGraph
	rule  rule
	diags *[]Diagnostic
}

// relOf maps a fileset filename to its module-relative slash path.
func (p *pass) relOf(filename string) string {
	rel, err := filepath.Rel(p.m.Root, filename)
	if err != nil {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// reportAt records one finding for the running rule.
func (p *pass) reportAt(pos token.Pos, msg string, chain []Hop) {
	position := p.m.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:     p.rule.name,
		Severity: p.rule.severity,
		File:     p.relOf(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
		Chain:    chain,
	})
}

func (p *pass) reportf(pos token.Pos, msg string) { p.reportAt(pos, msg, nil) }

// hop renders one call-graph node as a chain frame.
func (p *pass) hop(n *CallNode) Hop {
	pos := p.m.Fset.Position(n.Decl.Pos())
	return Hop{Func: n.Fn.FullName(), File: p.relOf(pos.Filename), Line: pos.Line}
}

// Run loads, type-checks, and analyzes the module. A *LoadError (broken
// tree) is returned as err; findings live in the report.
func Run(opts Options) (*Report, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	m, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	graph := buildCallGraph(m)

	want := map[string]bool{}
	for _, r := range opts.Rules {
		want[r] = true
	}
	var diags []Diagnostic
	for _, r := range ruleTable {
		if len(want) > 0 && !want[r.name] {
			continue
		}
		p := &pass{m: m, graph: graph, rule: r, diags: &diags}
		r.run(p)
	}

	relOf := func(filename string) string {
		rel, err := filepath.Rel(m.Root, filename)
		if err != nil {
			return filepath.ToSlash(filename)
		}
		return filepath.ToSlash(rel)
	}
	var supDiags []Diagnostic
	sups := collectSuppressions(m, func(d Diagnostic) { supDiags = append(supDiags, d) })
	diags = applySuppressions(diags, sups, relOf, len(want) == 0)
	diags = append(diags, supDiags...)

	if len(opts.Scope) > 0 {
		var scoped []Diagnostic
		for _, d := range diags {
			for _, prefix := range opts.Scope {
				if prefix == "" || d.File == prefix || strings.HasPrefix(d.File, prefix+"/") ||
					(strings.HasSuffix(prefix, "/") && strings.HasPrefix(d.File, prefix)) {
					scoped = append(scoped, d)
					break
				}
			}
		}
		diags = scoped
	}
	sortDiagnostics(diags)
	return &Report{Module: m, Diags: diags}, nil
}

// underAny reports whether a module-relative package dir is under any of
// the given slash-separated prefixes.
func underAny(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// sortedKeys returns map keys in sorted order (deterministic iteration for
// reporting).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
