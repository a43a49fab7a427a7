package ir

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DAG is a directed acyclic graph of operators. Ops appear in insertion
// order; edges are the Inputs pointers. A DAG owns ID assignment for its
// operators.
type DAG struct {
	Ops []*Op
	// inferMu serializes schema inference: inferring a WHILE operator binds
	// outer schemas onto the body's input ops, and concurrent jobs of one
	// workflow (Runner.Execute runs independent jobs in goroutines) may
	// infer over the same shared DAG at once.
	inferMu sync.Mutex
	nextID  int
	// defects records structural problems observed while manipulating the
	// DAG (e.g. Clone finding an edge to an operator outside the DAG).
	// The analyzer surfaces them as diagnostics instead of crashing.
	defects []string
}

// NewDAG returns an empty DAG.
func NewDAG() *DAG { return &DAG{} }

// Add creates an operator, assigns it an ID, and appends it to the DAG.
// Inputs must already belong to the DAG. A WHILE body's operators are
// renumbered into the parent's ID space so that every operator reachable
// from a DAG — including nested loop bodies — has a unique ID; traces and
// history observations key on these IDs. IDs remain deterministic for a
// fixed construction order, which is what lets workflow history collected
// on one build of a workflow apply to the next.
func (d *DAG) Add(t OpType, out string, params Params, inputs ...*Op) *Op {
	op := &Op{ID: d.nextID, Type: t, Out: out, Inputs: inputs, Params: params}
	d.nextID++
	d.Ops = append(d.Ops, op)
	if params.Body != nil {
		d.adoptIDs(params.Body)
	}
	return op
}

// adoptIDs renumbers a nested DAG's operators into d's ID space.
func (d *DAG) adoptIDs(body *DAG) {
	for _, op := range body.Ops {
		op.ID = d.nextID
		d.nextID++
		if op.Params.Body != nil {
			d.adoptIDs(op.Params.Body)
		}
	}
	body.nextID = d.nextID
}

// ByOut returns the operator producing the named relation, or nil.
func (d *DAG) ByOut(name string) *Op {
	for _, op := range d.Ops {
		if op.Out == name {
			return op
		}
	}
	return nil
}

// Consumers returns, for every operator, the operators that read its output.
func (d *DAG) Consumers() map[*Op][]*Op {
	cons := make(map[*Op][]*Op, len(d.Ops))
	for _, op := range d.Ops {
		for _, in := range op.Inputs {
			cons[in] = append(cons[in], op)
		}
	}
	return cons
}

// Sinks returns compute operators whose output no other operator consumes;
// their outputs are the workflow's results, written back to the DFS.
// Unconsumed INPUT operators are not sinks — an unused source is dead data,
// not a result.
func (d *DAG) Sinks() []*Op {
	cons := d.Consumers()
	var sinks []*Op
	for _, op := range d.Ops {
		if op.Type != OpInput && len(cons[op]) == 0 {
			sinks = append(sinks, op)
		}
	}
	return sinks
}

// TopoSort returns the operators in a topological order (inputs before
// consumers) or an error if the graph contains a cycle or an edge to an
// operator outside the DAG.
func (d *DAG) TopoSort() ([]*Op, error) {
	inDAG := make(map[*Op]bool, len(d.Ops))
	for _, op := range d.Ops {
		inDAG[op] = true
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Op]int, len(d.Ops))
	order := make([]*Op, 0, len(d.Ops))
	var visit func(op *Op) error
	visit = func(op *Op) error {
		switch color[op] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("ir: cycle through %s", op)
		}
		color[op] = gray
		for _, in := range op.Inputs {
			if !inDAG[in] {
				return fmt.Errorf("ir: %s has input %s outside the DAG", op, in)
			}
			if err := visit(in); err != nil {
				return err
			}
		}
		color[op] = black
		order = append(order, op)
		return nil
	}
	// Visit in insertion order so the result is deterministic; this is the
	// "single linear ordering" the DP partitioning heuristic explores.
	for _, op := range d.Ops {
		if err := visit(op); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Validate checks the DAG is well-formed: it topo-sorts, checks
// relation-name uniqueness — descending into WHILE bodies — and runs
// schema inference over every operator, stopping at the first error. The
// full multi-diagnostic check is internal/analysis's, which every compiled
// workflow passes through once.
func (d *DAG) Validate() error {
	if err := d.ValidateStructure(); err != nil {
		return err
	}
	_, err := d.InferSchemas()
	return err
}

// ValidateStructure topo-sorts the DAG and checks relation names are
// non-empty and unique. Names are scoped per DAG: a WHILE body deliberately
// reuses outer relation names for its input bridges, so each body is
// checked as its own namespace.
func (d *DAG) ValidateStructure() error {
	if _, err := d.TopoSort(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(d.Ops))
	for _, op := range d.Ops {
		if op.Out == "" {
			return fmt.Errorf("ir: %s has empty output name", op)
		}
		if seen[op.Out] {
			return fmt.Errorf("ir: duplicate output relation %q", op.Out)
		}
		seen[op.Out] = true
	}
	for _, op := range d.Ops {
		if op.Params.Body != nil {
			if err := op.Params.Body.ValidateStructure(); err != nil {
				return fmt.Errorf("ir: %s body: %w", op, err)
			}
		}
	}
	return nil
}

// StampProv stamps front-end provenance onto d.Ops[from:] (and their WHILE
// bodies), leaving already-stamped operators alone. Front-ends call it once
// per translated statement with the statement's source line.
func (d *DAG) StampProv(frontend string, line, from int) {
	if from < 0 || from > len(d.Ops) {
		return
	}
	for _, op := range d.Ops[from:] {
		op.stampProv(frontend, line)
	}
}

// Defects returns structural problems recorded while manipulating the DAG.
func (d *DAG) Defects() []string { return d.defects }

// Clone deep-copies the DAG (including WHILE bodies). Operator IDs are
// preserved so partitionings computed on a clone map back to the original.
func (d *DAG) Clone() *DAG {
	c := &DAG{nextID: d.nextID}
	c.defects = append(c.defects, d.defects...)
	mapping := make(map[*Op]*Op, len(d.Ops))
	for _, op := range d.Ops {
		nop := &Op{ID: op.ID, Type: op.Type, Out: op.Out, Params: op.Params}
		if op.Params.Body != nil {
			nop.Params.Body = op.Params.Body.Clone()
		}
		if op.Params.Carried != nil {
			nop.Params.Carried = make(map[string]string, len(op.Params.Carried))
			for k, v := range op.Params.Carried {
				nop.Params.Carried[k] = v
			}
		}
		mapping[op] = nop
		c.Ops = append(c.Ops, nop)
	}
	for _, op := range d.Ops {
		nop := mapping[op]
		for _, in := range op.Inputs {
			nin, ok := mapping[in]
			if !ok {
				// Input outside this DAG (WHILE bodies reference outer ops
				// only via relation names, so this is a malformed front-end
				// DAG). Drop the edge and record the defect; the analyzer's
				// structural pass reports it as a diagnostic instead of the
				// whole process crashing.
				c.defects = append(c.defects,
					fmt.Sprintf("%s has input %s outside the DAG (dropped while cloning)", op, in))
				continue
			}
			nop.Inputs = append(nop.Inputs, nin)
		}
	}
	return c
}

// NumOps returns the operator count, counting WHILE bodies recursively
// (the paper's operator counts, e.g. NetFlix's 13, count this way).
func (d *DAG) NumOps() int {
	n := 0
	for _, op := range d.Ops {
		n++
		if op.Params.Body != nil {
			n += op.Params.Body.NumOps()
		}
	}
	return n
}

// String renders the DAG one operator per line in topological order.
func (d *DAG) String() string {
	ops, err := d.TopoSort()
	if err != nil {
		ops = d.Ops
	}
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
		if op.Params.Body != nil {
			for _, line := range strings.Split(strings.TrimRight(op.Params.Body.String(), "\n"), "\n") {
				b.WriteString("    ")
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// InputNames returns the DFS paths read by the DAG's OpInput operators,
// sorted for determinism.
func (d *DAG) InputNames() []string {
	var names []string
	for _, op := range d.Ops {
		if op.Type == OpInput {
			names = append(names, op.Params.Path)
		}
	}
	sort.Strings(names)
	return names
}
