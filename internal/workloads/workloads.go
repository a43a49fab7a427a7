// Package workloads provides the data generators and workflow definitions
// used by the evaluation (paper §2 and §6): the PROJECT and JOIN
// micro-benchmarks, TPC-H query 17, top-shopper, the NetFlix movie
// recommendation workflow (13 operators, plus the 18-operator extended
// version used for the partitioning benchmark), PageRank, single-source
// shortest paths, k-means clustering, and the hybrid cross-community
// PageRank.
//
// Public data sets are substituted with seeded synthetic equivalents of the
// same shape (see DESIGN.md §2): each generator materializes a small
// physical sample and stamps the paper-scale size as the relations'
// LogicalBytes, so operator statistics come from real execution while the
// cost model sees paper-scale volumes.
package workloads

import (
	"fmt"
	"math/rand"

	"musketeer/internal/dfs"
	"musketeer/internal/frontends"
	"musketeer/internal/ir"
	"musketeer/internal/relation"
)

// Workload bundles a workflow with its staged inputs.
type Workload struct {
	Name string
	// Build constructs a fresh IR DAG (runs may mutate operator state, so
	// every execution gets its own copy).
	Build func() (*ir.DAG, error)
	// Inputs maps DFS paths to input relations.
	Inputs map[string]*relation.Relation
	// Output names the workflow's primary result relation.
	Output string
}

// Stage writes the workload's inputs into the filesystem.
func (w *Workload) Stage(fs *dfs.DFS) error {
	for path, rel := range w.Inputs {
		if err := fs.WriteRelation(path, rel); err != nil {
			return fmt.Errorf("workloads: stage %s: %w", w.Name, err)
		}
	}
	return nil
}

// InputBytes sums the effective sizes of the workload's inputs.
func (w *Workload) InputBytes() int64 {
	var n int64
	for _, rel := range w.Inputs {
		n += rel.EffectiveBytes()
	}
	return n
}

// scaleTo stamps rel with a target logical size.
func scaleTo(rel *relation.Relation, logicalBytes int64) *relation.Relation {
	rel.LogicalBytes = logicalBytes
	return rel
}

// gb converts gigabytes to bytes.
func gb(x float64) int64 { return int64(x * 1e9) }

// mb converts megabytes to bytes.
func mb(x float64) int64 { return int64(x * 1e6) }

// rng returns a deterministic generator; every workload derives its data
// from fixed seeds so runs are reproducible.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sprintf is fmt.Sprintf under a short local name for workflow templates.
func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

var _ = frontends.Catalog{} // catalog types are used by the per-workload files
