// Package sharedrand flags *math/rand.Rand values that can be shared
// across goroutines.
//
// rand.Rand is not safe for concurrent use, and even under a lock a shared
// stream makes the interleaving of draws — and therefore dropout masks and
// negative samples — depend on goroutine scheduling, destroying
// reproducibility. The training engine's rule is one stream per worker,
// seeded Seed+workerID. The analyzer reports:
//
//   - *rand.Rand variables (including struct fields like m.rng) referenced
//     inside a function literal launched by a `go` statement, handed to
//     the tensor worker pool via RunTasks, or passed to Tape.Fork as a
//     body that may run on a child goroutine;
//   - package-level *rand.Rand variables, which are de-facto shared state.
//
// Code that provably selects a per-worker stream inside the closure can
// carry //lint:ignore sharedrand <reason>.
package sharedrand

import (
	"go/ast"
	"go/types"

	"voyager/internal/analysis"
)

// launcher identifies a function that runs closures on other goroutines.
type launcher struct{ pkg, name string }

var launchers = []launcher{
	{"voyager/internal/tensor", "RunTasks"},
	{"voyager/internal/tensor", "Fork"}, // (*Tape).Fork: bodies may run concurrently
}

// New returns the analyzer. Extra launchers may be given as
// "import/path.FuncName" strings (used by tests).
func New(extraLaunchers ...string) *analysis.Analyzer {
	ls := launchers
	for _, e := range extraLaunchers {
		for i := len(e) - 1; i >= 0; i-- {
			if e[i] == '.' {
				ls = append(ls, launcher{e[:i], e[i+1:]})
				break
			}
		}
	}
	return &analysis.Analyzer{
		Name: "sharedrand",
		Doc:  "flags *rand.Rand streams shared across goroutines",
		Run: func(pass *analysis.Pass) {
			if pass.Pkg.IsTest {
				pass.SkipPackage()
				return
			}
			for _, f := range pass.Pkg.Files {
				checkFile(pass, f, ls)
			}
		},
	}
}

func isRandPtr(t types.Type) bool {
	return t != nil && analysis.IsNamed(t, "math/rand", "Rand")
}

func checkFile(pass *analysis.Pass, f *ast.File, ls []launcher) {
	// Package-level *rand.Rand variables are shared by construction.
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if obj := pass.ObjectOf(name); obj != nil {
					if _, isVar := obj.(*types.Var); isVar && isRandPtr(obj.Type()) {
						pass.Reportf(name.Pos(), "package-level *rand.Rand %s is shared by every caller: use one stream per worker (Seed+workerID) instead", name.Name)
					}
				}
			}
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			checkLaunchArgs(pass, st.Call, "go statement")
		case *ast.CallExpr:
			if l, ok := launchTarget(pass, st, ls); ok {
				checkLaunchArgs(pass, st, l.name)
			}
		}
		return true
	})
}

// launchTarget reports whether call invokes a registered worker-pool
// launcher.
func launchTarget(pass *analysis.Pass, call *ast.CallExpr, ls []launcher) (launcher, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = pass.ObjectOf(fun.Sel)
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return launcher{}, false
	}
	for _, l := range ls {
		if fn.Name() == l.name && fn.Pkg().Path() == l.pkg {
			return l, true
		}
	}
	return launcher{}, false
}

// checkLaunchArgs inspects the call's function literals (the launched
// closure and any closure arguments) for *rand.Rand references declared
// outside the literal.
func checkLaunchArgs(pass *analysis.Pass, call *ast.CallExpr, how string) {
	lits := []ast.Expr{call.Fun}
	lits = append(lits, call.Args...)
	for _, e := range lits {
		fl, ok := ast.Unparen(e).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.ObjectOf(id).(*types.Var)
			if !ok || !isRandPtr(v.Type()) {
				return true
			}
			// Declarations inside the literal are goroutine-local.
			if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
				return true
			}
			what := "variable"
			if v.IsField() {
				what = "field"
			}
			pass.Reportf(id.Pos(), "*rand.Rand %s %s captured by closure launched via %s: rand.Rand is not goroutine-safe and shared draws break reproducibility; use one stream per worker", what, id.Name, how)
			return true
		})
	}
}
