package vet

import (
	"flag"
	"fmt"
	"io"
	"strings"
)

// Exit codes: CI must be able to tell a broken tree from a dirty one.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // the tree parses and type-checks but violates invariants
	ExitBroken   = 2 // parse or type-check failure (or bad usage)
)

// tool names the command in usage and error text.
const tool = "mkvet"

// CLIMain is the entry point of cmd/mkvet. It parses tool flags and
// go-style ./... patterns, runs the analysis, prints findings
// (human-readable or -json), and returns the process exit code.
func CLIMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report")
	rulesFlag := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	listRules := fs.Bool("list", false, "list registered rules and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-json] [-rules r1,r2] [pattern ...]\n\n", tool)
		fmt.Fprintf(stderr, "Patterns are go-style package paths relative to the module root;\n")
		fmt.Fprintf(stderr, "`./...` (the default) analyzes the whole module. Analysis is always\n")
		fmt.Fprintf(stderr, "module-wide; patterns scope which findings are reported.\n\n")
		fmt.Fprintf(stderr, "Exit status: %d clean, %d findings, %d parse/type-check failure.\n",
			ExitClean, ExitFindings, ExitBroken)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitBroken
	}
	if *listRules {
		for _, name := range RuleNames() {
			fmt.Fprintf(stdout, "%-28s %s\n", name, RuleDoc(name))
		}
		return ExitClean
	}

	opts := Options{Dir: "."}
	if *rulesFlag != "" {
		for _, r := range strings.Split(*rulesFlag, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			if RuleDoc(r) == "" {
				fmt.Fprintf(stderr, "%s: unknown rule %q (see %s -list)\n", tool, r, tool)
				return ExitBroken
			}
			opts.Rules = append(opts.Rules, r)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, pat := range patterns {
		scope, ok := patternScope(pat)
		if !ok {
			fmt.Fprintf(stderr, "%s: unsupported pattern %q (want ./dir or ./dir/...)\n", tool, pat)
			return ExitBroken
		}
		if scope == "" {
			// whole module: no scoping at all
			opts.Scope = nil
			break
		}
		opts.Scope = append(opts.Scope, scope)
	}

	rep, err := Run(opts)
	if err != nil {
		if le, ok := err.(*LoadError); ok {
			for _, msg := range le.Errs {
				fmt.Fprintln(stderr, msg)
			}
			fmt.Fprintf(stderr, "%s: module does not type-check (%d error(s))\n", tool, len(le.Errs))
			return ExitBroken
		}
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return ExitBroken
	}
	if *jsonOut {
		if err := WriteJSON(stdout, rep.Module.Path, rep.Diags); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return ExitBroken
		}
	} else {
		for _, d := range rep.Diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(rep.Diags) > 0 {
		fmt.Fprintf(stderr, "%s: %d finding(s)\n", tool, len(rep.Diags))
		return ExitFindings
	}
	return ExitClean
}

// patternScope maps a CLI pattern to a module-relative directory prefix.
// "" with ok=true means the whole module.
func patternScope(pat string) (string, bool) {
	p := strings.TrimSuffix(pat, "/...")
	p = strings.TrimPrefix(p, "./")
	p = strings.Trim(p, "/")
	if p == "." {
		p = ""
	}
	if strings.HasPrefix(p, "..") || strings.Contains(p, "...") {
		return "", false
	}
	return p, true
}
