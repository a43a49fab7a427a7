package vet

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkValueFields keeps relation.Value's content fields write-once: a Value
// carries a cached text width beside Kind/I/F/S (size accounting reads it
// instead of re-rendering the number), so assigning one of those fields in
// place would leave a width that no longer matches the content. Only
// internal/relation — whose constructors start every Value with no width —
// may write them; everyone else builds a new Value and replaces the cell.
func checkValueFields(p *pass) {
	p.eachFuncDecl(func(pkg *Package, file *File, decl *ast.FuncDecl) {
		if underAny(pkg.Rel, []string{"internal/relation"}) {
			return
		}
		check := func(lhs ast.Expr) {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal || !p.isModuleType(s.Recv(), "internal/relation", "Value") {
				return
			}
			switch sel.Sel.Name {
			case "Kind", "I", "F", "S":
				p.reportf(sel.Pos(), fmt.Sprintf(
					"assignment to relation.Value.%s outside internal/relation would leave a stale cached text width: build a new Value (relation.Int/Float/Str) and replace the cell", sel.Sel.Name))
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(n.X)
			}
			return true
		})
	})
}
