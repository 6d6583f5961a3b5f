// Package hotalloc flags allocation sites in functions annotated
// //hot:path — the methods guarded by the repo's AllocsPerRun budget tests
// (TestHotPathAllocFree, TestMatMulKernelsAllocFree, TestFastPathAllocFree).
//
// The budget tests catch a regression only after it ships and only for the
// exact call shapes they exercise; this analyzer points at the *line* that
// allocates, at vet time, for every path the tests may not cover. A root is
// declared by putting //hot:path in the function's doc comment. Detection
// is intraprocedural plus one level: the annotated body is scanned, and so
// is the body of every same-package function it calls directly, with callee
// allocations reported at the call site (so the suppression, when the
// allocation is intentional, sits on the caller's line).
//
// Reported site kinds:
//
//   - make / new / append (append may grow its backing array)
//   - &T{...} and slice/map composite literals
//   - function literals (closures capture by reference and escape)
//   - interface boxing: a non-pointer-shaped concrete value (basic, struct,
//     array, slice, string) passed where the callee takes an interface —
//     e.g. fmt arguments. Pointer-shaped values (pointers, channels, maps,
//     funcs) fit in the interface word and do not allocate.
//
// Blocks that cannot reach the function exit — panic guards, log.Fatal
// tails — are skipped: a shape-mismatch panic's fmt.Sprintf boxing is not
// on the hot path, by construction. Intentional allocations (a nil-dst
// convenience branch, a one-time lazy init) carry
// //lint:ignore hotalloc <reason>.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"voyager/internal/analysis"
	"voyager/internal/analysis/cfg"
)

// New returns the hotalloc analyzer. It runs on every non-test package and
// activates only where a //hot:path annotation appears.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc:  "flags allocation sites in //hot:path-annotated functions and their direct callees",
		Run:  run,
	}
}

// isHot reports whether the function's doc comment carries //hot:path.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "hot:path" || strings.HasPrefix(text, "hot:path ") {
			return true
		}
	}
	return false
}

// site is one allocation found in a body scan.
type site struct {
	pos  token.Pos
	kind string
}

func run(pass *analysis.Pass) {
	if pass.Pkg.IsTest {
		pass.SkipPackage()
		return
	}
	decls := map[*types.Func]*ast.FuncDecl{} // same-package funcs, for the one-level walk
	var hot []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func); fn != nil {
				decls[fn] = fd
			}
			if isHot(fd) {
				hot = append(hot, fd)
			}
		}
	}
	if len(hot) == 0 {
		return
	}

	// Memoized direct-allocation scan per function, so shared callees are
	// walked once no matter how many hot roots call them.
	scanned := map[*ast.FuncDecl][]site{}
	scan := func(fd *ast.FuncDecl) []site {
		if s, ok := scanned[fd]; ok {
			return s
		}
		s := directAllocs(pass, fd)
		scanned[fd] = s
		return s
	}

	for _, fd := range hot {
		name := fd.Name.Name
		if fd.Recv != nil {
			name = recvName(fd) + "." + name
		}
		for _, s := range scan(fd) {
			pass.Reportf(s.pos, "%s on //hot:path %s: hot-path methods are allocation-free by contract (AllocsPerRun-gated); hoist it, reuse a buffer, or //lint:ignore hotalloc <why this allocation is intended>",
				s.kind, name)
		}
		// One level down: direct same-package callees, reported at the
		// call site so suppressions live on the caller's line.
		for _, edge := range directCallees(pass, fd, decls) {
			callee := edge.decl
			if isHot(callee) {
				continue // checked as its own root, at its own lines
			}
			if allocs := scan(callee); len(allocs) > 0 {
				first := pass.Fset.Position(allocs[0].pos)
				pass.Reportf(edge.pos, "call to %s on //hot:path %s allocates (%s at %s:%d); hoist it, reuse a buffer, or //lint:ignore hotalloc <why this allocation is intended>",
					edge.name, name, allocs[0].kind, shortFile(first.Filename), first.Line)
			}
		}
	}
}

func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// callEdge is one direct call from a hot function to a same-package callee.
type callEdge struct {
	pos  token.Pos
	name string
	decl *ast.FuncDecl
}

// directCallees returns the same-package functions fd calls from
// exit-reaching blocks, one edge per call site.
func directCallees(pass *analysis.Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []callEdge {
	var edges []callEdge
	forEachHotNode(fd, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return
		}
		fn, _ := pass.ObjectOf(id).(*types.Func)
		if fn == nil {
			return
		}
		if callee, ok := decls[fn]; ok {
			edges = append(edges, callEdge{pos: call.Pos(), name: fn.Name(), decl: callee})
		}
	})
	return edges
}

// directAllocs scans fd's exit-reaching blocks for allocation sites.
func directAllocs(pass *analysis.Pass, fd *ast.FuncDecl) []site {
	var sites []site
	seen := map[token.Pos]bool{}
	add := func(pos token.Pos, kind string) {
		if !seen[pos] {
			seen[pos] = true
			sites = append(sites, site{pos: pos, kind: kind})
		}
	}
	forEachHotNode(fd, func(n ast.Node) {
		classify(pass, n, add)
	})
	return sites
}

// forEachHotNode visits every AST node in fd's reachable, exit-reaching
// blocks. Nested function literals are visited as single nodes (their
// bodies run on their own goroutine's schedule, not this path) — the
// literal itself still surfaces, because building it allocates.
func forEachHotNode(fd *ast.FuncDecl, f func(ast.Node)) {
	g := cfg.Build(fd)
	for _, blk := range g.Blocks {
		if !g.Reachable(blk) || !g.ReachesExit(blk) {
			continue
		}
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if m == nil {
					return false
				}
				if _, isLit := m.(*ast.FuncLit); isLit {
					f(m) // the closure value itself is an allocation
					return false
				}
				f(m)
				return true
			})
		}
	}
}

// classify reports n's allocation kind, if any, via add.
func classify(pass *analysis.Pass, n ast.Node, add func(token.Pos, string)) {
	switch n := n.(type) {
	case *ast.FuncLit:
		add(n.Pos(), "closure allocation")
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				add(n.Pos(), "heap composite literal (&T{...})")
			}
		}
	case *ast.CompositeLit:
		if t := pass.TypeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				add(n.Pos(), "slice/map literal allocation")
			}
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok {
			if b, _ := pass.ObjectOf(id).(*types.Builtin); b != nil {
				switch b.Name() {
				case "make":
					add(n.Pos(), "make allocation")
				case "new":
					add(n.Pos(), "new allocation")
				case "append":
					add(n.Pos(), "append (may grow the backing array)")
				}
				return
			}
		}
		boxedArgs(pass, n, add)
	}
}

// boxedArgs flags call arguments boxed into interface parameters.
func boxedArgs(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string)) {
	sig, _ := pass.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || isPointerShaped(at) {
			continue
		}
		add(arg.Pos(), "interface boxing of "+at.String())
	}
}

// isPointerShaped reports whether values of t fit in the interface data
// word without allocation.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
