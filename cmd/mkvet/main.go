// Command mkvet is Musketeer's type-aware static analyzer: it
// type-checks the whole module, builds per-function control-flow graphs
// and a module-wide call graph, and proves the kernel invariants the
// paper's correctness story rests on — deterministic cost estimation
// (§5.2), span hygiene on every path, context and lock discipline,
// scheduler-owned concurrency, and batch-arena ownership — plus the
// hot-path-keys, engine-profile and stream-rows source rules.
//
// Usage:
//
//	mkvet [-json] [-rules r1,r2] [./pkg/...]
//	mkvet -list
//
// Suppress a finding with a justified marker on (or directly above) the
// offending line:
//
//	//mkvet:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory, and a suppression that stops matching anything
// becomes a finding itself. Exit status: 0 clean, 1 findings, 2 the tree
// does not parse or type-check. See DESIGN.md §12 for the invariant
// catalog and how to add a check.
package main

import (
	"os"

	"musketeer/internal/vet"
)

func main() {
	os.Exit(vet.CLIMain(os.Args[1:], os.Stdout, os.Stderr))
}
