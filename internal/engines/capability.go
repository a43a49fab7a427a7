package engines

import (
	"fmt"
	"sort"
	"strings"
)

// CapabilityMatrix renders what each engine can run, one engine per row,
// sorted by name (`musketeer check -matrix`): the operators its paradigm
// accepts (see rule), how it iterates a WHILE, whether it scales past one
// machine, and how many shuffles one of its jobs may hold.
func CapabilityMatrix(engs []*Engine) string {
	sorted := append([]*Engine(nil), engs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-15s %-10s %-12s %-10s %-9s\n",
		"engine", "paradigm", "operators", "iteration", "machines", "shuffles")
	for _, e := range sorted {
		ops, shuf := "all", "unlimited"
		switch e.paradigm {
		case ParadigmVertexCentric:
			ops = "gas-only"
		case ParadigmMapReduce:
			shuf = "1/job"
		}
		iter := "driver"
		if e.prof.NativeIteration {
			iter = "native"
		}
		nodes := "cluster"
		if e.prof.SingleMachine {
			nodes = "single"
		}
		fmt.Fprintf(&b, "%-12s %-15s %-10s %-12s %-10s %-9s\n",
			e.name, e.paradigm, ops, iter, nodes, shuf)
	}
	return b.String()
}
