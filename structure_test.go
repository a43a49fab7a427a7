package musketeer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"musketeer/internal/allocgate"
)

// goroutineSites are the only functions whose bodies may start a goroutine
// (DESIGN.md §8.3): the job scheduler and the fair queue, the pipeline
// fork-join, the CLI's debug listener, and the benchmark harness's heap
// sampler and open-loop sender. Each is keyed "file func", with a method
// named as (*T).m.
var goroutineSites = []string{
	"internal/sched/sched.go (*Scheduler).run",
	"internal/sched/fairqueue.go NewFairQueue",
	"internal/exec/fuse.go (*chain).run",
	"cmd/musketeer/main.go run",
	"internal/perf/run.go measure",
	"internal/perf/serve.go (*serveLoop).window",
}

// clockFreePackages are the data path and the cluster model: what they
// produce must not depend on when, how often or on which host they run, so
// they read no clock, draw no random numbers and import no runtime (a split
// cut by its core count would make float sums and row groups follow the
// host).
var clockFreePackages = []string{
	"internal/exec", "internal/relation", "internal/ir", "internal/dfs", "internal/cluster",
}

// TestGoroutinesStartInNamedPlaces parses every non-test Go file in the
// module and fails on a go statement outside goroutineSites, on a site that
// no longer starts one, and on a clock-free package importing time,
// math/rand or runtime.
func TestGoroutinesStartInNamedPlaces(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if slices.Contains(clockFreePackages, filepath.ToSlash(filepath.Dir(path))) {
			for _, imp := range f.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); p {
				case "time", "math/rand", "math/rand/v2", "runtime":
					t.Errorf("%s imports %q: %s is clock-free and host-free", fset.Position(imp.Pos()), p, filepath.Dir(path))
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := path + " " + funcName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					seen[site] = true
					if !slices.Contains(goroutineSites, site) {
						t.Errorf("%s: go statement in %s; start goroutines through internal/sched or add the site to goroutineSites", fset.Position(g.Pos()), site)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range goroutineSites {
		if !seen[site] {
			t.Errorf("goroutineSites names %s, which starts no goroutine", site)
		}
	}
}

// TestEveryKernelBaselineIsGated parses every test file in the module and
// fails on a BENCH_kernels.json "after" entry that no allocgate.Table
// literal names: an entry no TestKernelAllocationsHoldBaseline measures
// would gate nothing.
func TestEveryKernelBaselineIsGated(t *testing.T) {
	base, err := allocgate.Load("BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && types.ExprString(lit.Type) == "allocgate.Table" {
				for _, elt := range lit.Elts {
					if key, ok := elt.(*ast.KeyValueExpr).Key.(*ast.BasicLit); ok {
						name, _ := strconv.Unquote(key.Value)
						gated[name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("BENCH_kernels.json holds no Benchmark* entry with an \"after\"")
	}
	for name := range base {
		if !gated[name] {
			t.Errorf("BENCH_kernels.json entry %s is in no allocgate.Table: nothing gates it", name)
		}
	}
}

// funcName renders a declaration as f, T.m or (*T).m.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := types.ExprString(fn.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}
