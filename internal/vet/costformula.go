package vet

import (
	"go/ast"
	"go/types"
)

// costFormulaFile is the one file allowed to turn volumes into time.
const costFormulaFile = "internal/engines/cost.go"

// checkCostFormula keeps the cost model in one place: cluster.TransferTime
// is the only bytes-and-rate-to-seconds conversion, and engines.Price (in
// costFormulaFile) its only user, so the planner's estimate and an executed
// job's makespan cannot be computed by formulas that drift apart. Any other
// use — a call, or taking the function as a value — is a second copy of the
// cost function in the making.
func checkCostFormula(p *pass) {
	clusterPkg := p.m.Path + "/internal/cluster"
	for _, pkg := range p.m.Pkgs {
		for _, f := range pkg.Files {
			if f.Rel == costFormulaFile {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && funcFrom(fn, clusterPkg, "TransferTime") {
						p.reportf(id.Pos(), "cluster.TransferTime used outside "+costFormulaFile+
							": price volumes through engines.Price so planned and executed costs share one formula")
					}
				}
				return true
			})
		}
	}
}
