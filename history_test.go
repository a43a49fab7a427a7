package musketeer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"musketeer/internal/ir"
	"musketeer/internal/workloads"
)

// stageWorkloads writes every workload's inputs into m and returns m.
func stageWorkloads(t *testing.T, m *Musketeer, ws ...*workloads.Workload) *Musketeer {
	t.Helper()
	for _, w := range ws {
		for path, rel := range w.Inputs {
			if err := m.WriteInput(path, rel); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// workloadFlow wraps the workload's DAG as a workflow of m.
func workloadFlow(t *testing.T, m *Musketeer, w *workloads.Workload) *Workflow {
	t.Helper()
	dag, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := m.FromDAG(dag)
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// bodySizes returns the estimated size of every operator of the workflow's
// WHILE body, by relation name.
func bodySizes(t *testing.T, wf *Workflow) map[string]int64 {
	t.Helper()
	wf.Optimize()
	est, err := wf.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, op := range wf.DAG().Ops {
		if op.Type == ir.OpWhile {
			for _, bop := range op.Params.Body.Ops {
				sizes[bop.Out] = est.Size(bop)
			}
		}
	}
	if len(sizes) == 0 {
		t.Fatal("the workflow has no WHILE body")
	}
	return sizes
}

// TestLoopBodyHistoryStaysWithItsGraph: every PageRank compiles to the same
// GAS loop body — its INPUTs name relations, not paths — so only the
// relations they bind to tell one graph's body from another's. What a
// LiveJournal run observed of its body must not price Twitter's: in a
// deployment where LiveJournal ran, Twitter's body estimates equal those of
// a fresh deployment that holds the same inputs and the same learned
// calibration (class selectivities transfer across workflows by design)
// but no per-operator observations.
func TestLoopBodyHistoryStaysWithItsGraph(t *testing.T) {
	lj := workloads.PageRank(workloads.LiveJournal(), 5)
	tw := workloads.PageRank(workloads.Twitter(), 5)

	shared := stageWorkloads(t, New(EC2(16)), lj, tw)
	if _, err := workloadFlow(t, shared, lj).ExecuteOn("naiad"); err != nil {
		t.Fatal(err)
	}
	got := bodySizes(t, workloadFlow(t, shared, tw))
	fresh := stageWorkloads(t, New(EC2(16), WithHistory(calibrationOnly(t, shared.History()))), lj, tw)
	want := bodySizes(t, workloadFlow(t, fresh, tw))
	for name, w := range want {
		if got[name] != w {
			t.Errorf("Twitter body %s: %d bytes after a LiveJournal run, %d without its observations", name, got[name], w)
		}
	}
}

// calibrationOnly returns a store holding h's calibration and no
// observations, through the history file.
func calibrationOnly(t *testing.T, h *History) *History {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.json")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	delete(file, "ops")
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRenamedResubmissionReusesHistory: history is keyed by what each
// operator computes, so a resubmission with every relation but the inputs
// renamed and its operators listed in reverse is estimated from the first
// run's observations and planned the same way.
func TestRenamedResubmissionReusesHistory(t *testing.T) {
	m := New(LocalCluster(7))
	wf, err := m.CompileHive(maxPriceHive, stageProperty(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Execute(); err != nil {
		t.Fatal(err)
	}
	dag := wf.DAG().Clone()
	orig := map[*ir.Op]string{}
	for i, op := range dag.Ops {
		if op.Type != ir.OpInput {
			orig[op] = op.Out
			op.Out = fmt.Sprintf("r%d", i)
		}
	}
	slices.Reverse(dag.Ops)
	cp, err := m.FromDAG(dag)
	if err != nil {
		t.Fatal(err)
	}

	a, b := ir.Identify(wf.DAG()), ir.Identify(dag)
	found := false
	for _, op := range b.Order {
		if _, ok := m.History().Lookup(b.Key(op)); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("the renamed copy finds no history")
	}
	ea, err := wf.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := cp.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range a.Order {
		if sa, sb := ea.Size(op), eb.Size(b.Order[i]); sa != sb {
			t.Errorf("%s: estimated %d bytes, renamed copy %d", op.Out, sa, sb)
		}
	}

	pa, err := wf.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for op, name := range orig {
		op.Out = name
	}
	if ja, jb := jobStrings(pa), jobStrings(pb); !slices.Equal(ja, jb) {
		t.Errorf("renamed copy planned %q, original %q", jb, ja)
	}
}

// jobStrings renders each job as its engine and its operators, sorted.
func jobStrings(p *Partitioning) []string {
	var jobs []string
	for _, j := range p.Jobs {
		ops := make([]string, len(j.Frag.Ops))
		for i, op := range j.Frag.Ops {
			ops[i] = op.Type.String() + ":" + op.Out
		}
		slices.Sort(ops)
		jobs = append(jobs, j.Engine.Name()+" "+strings.Join(ops, " "))
	}
	return jobs
}
