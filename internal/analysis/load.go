package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader resolves two worlds of imports without any build tooling:
// module-local paths ("voyager/...") map to directories under the module
// root and are parsed and type-checked by the loader itself; everything
// else (the standard library) is handed to go/importer's source importer,
// which type-checks straight from GOROOT source. Both share one FileSet so
// positions stay coherent, and both are cached process-wide: the stdlib
// closure (testing, fmt, math, …) is expensive to check and identical for
// every Loader in a test binary.
var (
	sharedFset *token.FileSet
	stdImp     types.ImporterFrom
	sharedMu   sync.Mutex
	pkgCache   = map[string]*Package{} // keyed by moduleRoot + "\x00" + importPath
)

func sharedImporter() (*token.FileSet, types.ImporterFrom) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedFset == nil {
		sharedFset = token.NewFileSet()
		stdImp = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	}
	return sharedFset, stdImp
}

// Package is one loaded, type-checked package.
type Package struct {
	Path string // import path (synthetic for testdata packages)
	Dir  string
	Name string

	Fset *token.FileSet
	// Files holds the non-test source files; TestFiles the in-package
	// _test.go files. Both are type-checked together (the augmented
	// package, as `go test` compiles it), so Info covers both.
	Files     []*ast.File
	TestFiles []*ast.File
	// IsTest marks an external foo_test package.
	IsTest bool

	Types *types.Package
	Info  *types.Info

	// XTest is the external _test package compiled against this one, if
	// the directory has any.
	XTest *Package
}

// AllSyntax returns every parsed file of the package.
func (p *Package) AllSyntax() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// Loader loads packages of one module.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.ImporterFrom
	loading map[string]bool
}

// NewLoader locates the enclosing module starting from dir ("" means the
// working directory).
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset, std := sharedImporter()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the first go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer so the loader can be plugged into
// types.Config directly.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom resolves module-local paths itself and defers everything else
// to the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// Load type-checks the package in dir under the given import path,
// including its test files and (separately) its external test package.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	return l.load(dir, importPath)
}

// LoadPatterns expands "./..." (every package directory under the module
// root), "dir/..." (every package directory under dir — used by
// vetvoyager's self-check over internal/analysis/...), or loads explicit
// directory arguments, returning packages sorted by import path. Walks
// skip testdata, hidden and underscore directories.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	walkTree := func(root string) (int, error) {
		found := 0
		err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				found++
				addDir(path)
			}
			return nil
		})
		return found, err
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if _, err := walkTree(l.ModuleRoot); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			d := base
			if !filepath.IsAbs(d) {
				d = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(base, "./")))
			}
			if _, err := os.Stat(d); err != nil {
				return nil, fmt.Errorf("analysis: pattern %s: %w", pat, err)
			}
			found, err := walkTree(d)
			if err != nil {
				return nil, err
			}
			if found == 0 {
				return nil, fmt.Errorf("analysis: no packages under %s", pat)
			}
		default:
			d := pat
			if !filepath.IsAbs(d) {
				d = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			if !hasGoFiles(d) {
				return nil, fmt.Errorf("analysis: no Go files in %s", d)
			}
			addDir(d)
		}
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.load(d, l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), "_") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

func (l *Loader) load(dir, importPath string) (*Package, error) {
	key := l.ModuleRoot + "\x00" + importPath
	sharedMu.Lock()
	if pkg, ok := pkgCache[key]; ok {
		sharedMu.Unlock()
		return pkg, nil
	}
	sharedMu.Unlock()
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var files, testFiles, xtestFiles []*ast.File
	var pkgName, xtestName string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		// Keep the files `go build` would compile for this GOOS/GOARCH, so
		// a package with per-architecture files declares each name once.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			pkgName = f.Name.Name
			files = append(files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtestName = f.Name.Name
			xtestFiles = append(xtestFiles, f)
		default:
			pkgName = f.Name.Name
			testFiles = append(testFiles, f)
		}
	}
	if len(files) == 0 && len(testFiles) == 0 && len(xtestFiles) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	pkg := &Package{Path: importPath, Dir: dir, Name: pkgName, Fset: l.fset}
	if len(files) > 0 || len(testFiles) > 0 {
		pkg.Files = files
		pkg.TestFiles = testFiles
		tp, info, err := l.check(importPath, pkg.AllSyntax())
		if err != nil {
			return nil, err
		}
		pkg.Types, pkg.Info = tp, info
		sharedMu.Lock()
		pkgCache[key] = pkg
		sharedMu.Unlock()
	}
	if len(xtestFiles) > 0 {
		xp := &Package{
			Path:   importPath + "_test",
			Dir:    dir,
			Name:   xtestName,
			Fset:   l.fset,
			Files:  xtestFiles,
			IsTest: true,
		}
		tp, info, err := l.check(xp.Path, xtestFiles)
		if err != nil {
			return nil, err
		}
		xp.Types, xp.Info = tp, info
		if pkg.Types != nil {
			pkg.XTest = xp
		} else {
			// Directory with only external test files; treat the xtest
			// package as the package itself.
			pkg = xp
			sharedMu.Lock()
			pkgCache[key] = pkg
			sharedMu.Unlock()
		}
	}
	return pkg, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return tp, info, nil
}
