package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns its
// root. files maps relative paths to contents; a go.mod is written unless
// the map already provides one.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	}
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// --- LoadPatterns ---

func TestLoadPatternsSubtree(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":              "package a\n",
		"a/deep/deep.go":      "package deep\n",
		"b/b.go":              "package b\n",
		"a/testdata/skip.go":  "package skip\n",
		"a/_vendorish/v.go":   "package v\n",
		"a/.hidden/h.go":      "package h\n",
		"a/empty/placeholder": "",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"a/..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"tmpmod/a", "tmpmod/a/deep"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("a/... loaded %v, want %v", paths, want)
	}

	// Duplicate and overlapping patterns must not error or double-load.
	pkgs, err = l.LoadPatterns([]string{"a/...", "a/...", "a/deep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("overlapping patterns loaded %d packages, want 2", len(pkgs))
	}
}

func TestLoadPatternsSubtreeEmpty(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":             "package a\n",
		"docs/readme.txt":    "not go\n",
		"docs/sub/other.txt": "still not go\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPatterns([]string{"docs/..."}); err == nil || !strings.Contains(err.Error(), "no packages under") {
		t.Fatalf("want 'no packages under' error, got %v", err)
	}
	if _, err := l.LoadPatterns([]string{"missing/..."}); err == nil {
		t.Fatal("want error for pattern rooted at a missing directory")
	}
}

// TestLoadHonorsBuildConstraints: a package that declares a name once per
// build configuration must load, with only the files go build compiles.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":        "package a\n\nconst fast = true\n",
		"a/portable.go": "//go:build ignore\n\npackage a\n\nconst fast = false\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Fatalf("loaded %d files, want 1", n)
	}
}

// --- loader error paths ---

func TestLoadMissingPackage(t *testing.T) {
	root := writeModule(t, map[string]string{"a/a.go": "package a\n"})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPatterns([]string{"nope"}); err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("want 'no Go files' error, got %v", err)
	}
}

func TestNewLoaderOutsideModule(t *testing.T) {
	dir := t.TempDir() // no go.mod anywhere up to the filesystem root
	if _, err := NewLoader(dir); err == nil || !strings.Contains(err.Error(), "no go.mod") {
		t.Fatalf("want 'no go.mod' error, got %v", err)
	}
}

func TestNewLoaderGoModWithoutModuleLine(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "go 1.22\n", // no module line
		"a/a.go": "package a\n",
	})
	if _, err := NewLoader(root); err == nil || !strings.Contains(err.Error(), "no module line") {
		t.Fatalf("want 'no module line' error, got %v", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module cyc\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"cyc/b\"\n\nvar A = b.B\n",
		"b/b.go": "package b\n\nimport \"cyc/a\"\n\nvar B = a.A\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPatterns([]string{"a"}); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("want 'import cycle' error, got %v", err)
	}
}

func TestLoadTypeError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nvar x int = \"not an int\"\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadPatterns([]string{"bad"}); err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("want type-checking error, got %v", err)
	}
}

// --- suppression: multi-check directives and staleness ---

// markAnalyzer reports a finding at every use of an identifier named mark.
func markAnalyzer(name, mark string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "test analyzer firing on " + mark,
		Run: func(pass *Pass) {
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == mark && pass.Pkg.Info.Uses[id] != nil {
						pass.Reportf(id.Pos(), "use of %s", mark)
					}
					return true
				})
			}
		},
	}
}

const suppressSrc = `package m

var markAlpha, markBeta int

func use() int {
	//lint:ignore alpha,beta one directive, two checks
	s := markAlpha + markBeta
	s += markAlpha
	//lint:ignore alpha nothing named alpha fires below
	s += markBeta
	return s
}
`

func loadSuppressPkg(t *testing.T) []*Package {
	t.Helper()
	root := writeModule(t, map[string]string{"m/m.go": suppressSrc})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"m"})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestMultiCheckDirectiveSuppressesBoth(t *testing.T) {
	res := Run(loadSuppressPkg(t), []*Analyzer{markAnalyzer("alpha", "markAlpha"), markAnalyzer("beta", "markBeta")})
	if res.Suppressed["alpha"] != 1 || res.Suppressed["beta"] != 1 {
		t.Fatalf("want one alpha and one beta suppression from the shared directive, got %v", res.Suppressed)
	}
	var alpha, beta, stale int
	for _, d := range res.Findings {
		switch d.Check {
		case "alpha":
			alpha++
		case "beta":
			beta++
		case "staleignore":
			stale++
			if !strings.Contains(d.Message, "lint:ignore alpha") {
				t.Fatalf("stale finding should name the directive's checks: %v", d)
			}
		default:
			t.Fatalf("unexpected finding %v", d)
		}
	}
	// s += markAlpha is unsuppressed; s += markBeta sits under a directive
	// that only names alpha, so beta still fires and the directive is stale.
	if alpha != 1 || beta != 1 || stale != 1 {
		t.Fatalf("want alpha=1 beta=1 staleignore=1, got alpha=%d beta=%d stale=%d: %v",
			alpha, beta, stale, res.Findings)
	}
}

func TestStaleDirectiveNotJudgedOnPartialRun(t *testing.T) {
	// With only beta running, the alpha-only directive cannot be judged
	// stale (its check was not part of the run) and the alpha,beta
	// directive is used by the beta suppression.
	res := Run(loadSuppressPkg(t), []*Analyzer{markAnalyzer("beta", "markBeta")})
	for _, d := range res.Findings {
		if d.Check == "staleignore" {
			t.Fatalf("partial run must not report staleignore: %v", d)
		}
	}
	if res.Suppressed["beta"] != 1 {
		t.Fatalf("want the shared directive to suppress beta once, got %v", res.Suppressed)
	}
}
