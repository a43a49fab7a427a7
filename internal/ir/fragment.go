package ir

import (
	"fmt"
	"sort"
	"strings"

	"musketeer/internal/relation"
)

// Fragment is a connected(-ish) subset of a DAG's operators that one
// back-end job will execute (paper §5: a partition of the IR DAG).
// Ops are stored in topological order of the parent DAG.
type Fragment struct {
	Ops []*Op
	// ExtIn are the relations the job must read from the DFS: outputs of
	// operators outside the fragment, plus OpInput sources inside it.
	ExtIn []*Op
	// ExtOut are the fragment operators whose outputs are consumed outside
	// the fragment (or are workflow sinks) and must be written to the DFS.
	ExtOut []*Op
	// shuffled[i] records whether ExtOut[i] is read by other jobs and by
	// nothing else — it has a consumer outside the fragment and is not a
	// forced output. It serves the engines' codec rule alone (see
	// ConsumedOutside); no cost depends on it.
	shuffled []bool

	dag     *DAG
	schemas map[*Op]relation.Schema
}

// NewFragment builds a fragment from a set of operators belonging to dag.
// It computes the external inputs/outputs from the DAG's edges.
func NewFragment(dag *DAG, ops []*Op) (*Fragment, error) {
	member := make(map[*Op]bool, len(ops))
	for _, op := range ops {
		member[op] = true
	}
	order, err := dag.TopoSort()
	if err != nil {
		return nil, err
	}
	f := &Fragment{dag: dag}
	inDAG := make(map[*Op]bool, len(order))
	for _, op := range order {
		inDAG[op] = true
		if member[op] {
			f.Ops = append(f.Ops, op)
		}
	}
	if len(f.Ops) != len(ops) {
		return nil, fmt.Errorf("ir: fragment contains operators outside the DAG")
	}
	cons := dag.Consumers()
	seenIn := make(map[*Op]bool)
	for _, op := range f.Ops {
		if op.Type == OpInput {
			f.ExtIn = append(f.ExtIn, op)
			continue
		}
		for _, in := range op.Inputs {
			if !member[in] && !seenIn[in] {
				seenIn[in] = true
				f.ExtIn = append(f.ExtIn, in)
			}
		}
	}
	for _, op := range f.Ops {
		if op.Type == OpInput {
			continue
		}
		shuffled := false
		for _, c := range cons[op] {
			if !member[c] {
				shuffled = true
			}
		}
		if shuffled || len(cons[op]) == 0 { // read by another job, or a sink
			f.ExtOut = append(f.ExtOut, op)
			f.shuffled = append(f.shuffled, shuffled)
		}
	}
	return f, nil
}

// Schemas lazily computes the inferred output schema of every operator in
// the parent DAG — the look-ahead type information code generation uses
// (paper §4.3.4). Computed on first use and cached; partitioning-time
// fragment churn never pays for it.
func (f *Fragment) Schemas() (map[*Op]relation.Schema, error) {
	if f.schemas != nil {
		return f.schemas, nil
	}
	if f.dag == nil {
		return nil, fmt.Errorf("ir: fragment has no parent DAG")
	}
	schemas, err := f.dag.InferSchemas()
	if err != nil {
		return nil, err
	}
	f.schemas = schemas
	return schemas, nil
}

// DAG returns the parent DAG the fragment was carved from.
func (f *Fragment) DAG() *DAG { return f.dag }

// ForceOutput marks a member operator's result as an external output even
// if no operator outside the fragment consumes it. The WHILE driver uses
// this to materialize loop-carried relations and stop-condition relations
// that are otherwise internal to a body job. The driver copies a forced
// output to where the next iteration, and in the end the workflow's reader,
// finds it: it is no longer only another job's input, even when one reads it.
func (f *Fragment) ForceOutput(op *Op) error {
	if !f.Contains(op) {
		return fmt.Errorf("ir: %s is not in the fragment", op)
	}
	for i, out := range f.ExtOut {
		if out == op {
			f.shuffled[i] = false
			return nil
		}
	}
	f.ExtOut = append(f.ExtOut, op)
	f.shuffled = append(f.shuffled, false)
	return nil
}

// ConsumedOutside reports whether op's output is written for other jobs of
// the run and no one else: some operator outside the fragment reads it, and
// it was not forced. Workflow sinks and forced outputs return false — a user
// may read them. It is the engines' rule for picking a file's codec, columnar
// between jobs and text otherwise, and serves nothing else.
func (f *Fragment) ConsumedOutside(op *Op) bool {
	for i, out := range f.ExtOut {
		if out == op {
			return f.shuffled[i]
		}
	}
	return false // internal to the fragment, or not in it at all
}

// Contains reports membership.
func (f *Fragment) Contains(op *Op) bool {
	for _, o := range f.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// IsShuffleOp reports whether the operator type requires a by-key shuffle.
func IsShuffleOp(t OpType) bool {
	switch t {
	case OpJoin, OpCrossJoin, OpAgg, OpDistinct, OpIntersect, OpDifference, OpSort:
		return true
	default:
		return false
	}
}

// While returns the fragment's WHILE operator, or nil. Partitionings treat
// WHILE as a single operator; a fragment holds at most one.
func (f *Fragment) While() *Op {
	for _, op := range f.Ops {
		if op.Type == OpWhile {
			return op
		}
	}
	return nil
}

// ComputeOps returns the fragment's non-INPUT operators.
func (f *Fragment) ComputeOps() []*Op {
	var ops []*Op
	for _, op := range f.Ops {
		if op.Type != OpInput {
			ops = append(ops, op)
		}
	}
	return ops
}

// Name derives a deterministic job name from the fragment's outputs.
func (f *Fragment) Name() string {
	names := make([]string, len(f.ExtOut))
	for i, op := range f.ExtOut {
		names[i] = op.Out
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "empty"
	}
	return strings.Join(names, "+")
}

// String renders the fragment for traces.
func (f *Fragment) String() string {
	parts := make([]string, len(f.Ops))
	for i, op := range f.Ops {
		parts[i] = fmt.Sprintf("%s:%s", op.Type, op.Out)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
