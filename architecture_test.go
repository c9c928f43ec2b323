package onesided

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeAnchor is ARCHITECTURE.md's way of pointing into the code: a
	// path from the repository root and a top-level declaration of that
	// file, `file.go:Name` or `file.go:Type.Method`.
	codeAnchor = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go):([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?)`")
	// fileCitation is a bare `path.go`: a file cited from the repository
	// root without a declaration.
	fileCitation = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go)`")
	// pkgCitation is README's way of naming an API: a package directory
	// from the repository root and a declaration of its non-test files,
	// `internal/pkg.Name` or `internal/pkg.Type.Method`. A bare
	// `internal/pkg/file.go` matches it too, with Name "go"; that is a
	// fileCitation and is skipped.
	pkgCitation = regexp.MustCompile("`(internal/[a-z0-9_/]+)\\.([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?)`")
	// lineAnchor is the form anchors must not take: a line number drifts
	// with every edit above it.
	lineAnchor = regexp.MustCompile(`[A-Za-z0-9_]\.go:[0-9]+`)
)

// TestArchitectureAnchors: every code anchor in ARCHITECTURE.md and
// README.md names a declaration its file still holds, every file they
// cite bare exists, and no anchor is a line number.
func TestArchitectureAnchors(t *testing.T) {
	for _, name := range []string{"ARCHITECTURE.md", "README.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(codeAnchor.FindAll(doc, -1)); name == "ARCHITECTURE.md" && n < 20 {
			t.Fatalf("found %d code anchors in %s; the pattern no longer matches how it cites code", n, name)
		}
		for _, err := range anchorErrors(doc) {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The check itself: a line number, a declaration that is gone from a
	// file or a package and a file that is gone are each reported; a
	// method, a package's declaration and a file that exist are not.
	stale := []byte("`engine.go:231` `engine.go:Engine.noSuchMethod` `engine.go:Engine.Prepare` `internal/eval/onesided.go:evalContext` `internal/eval/nosuchfile.go` `internal/eval/level.go` `internal/eval.NoSuch` `internal/eval.Plan.EvalCtx`")
	if errs := anchorErrors(stale); len(errs) != 5 {
		t.Fatalf("anchorErrors on five bad citations and three good ones = %v", errs)
	}
}

// anchorErrors reports every line-number anchor in doc, every bare
// `file.go` citation of a file that does not exist, every `file.go:Name`
// anchor whose file does not declare Name and every `internal/pkg.Name`
// citation whose package does not.
func anchorErrors(doc []byte) []error {
	var errs []error
	for _, m := range lineAnchor.FindAll(doc, -1) {
		errs = append(errs, fmt.Errorf("line-number anchor %s: cite file.go:Name instead", m))
	}
	for _, m := range fileCitation.FindAllSubmatch(doc, -1) {
		if _, err := os.Stat(string(m[1])); err != nil {
			errs = append(errs, fmt.Errorf("citation %s: %w", m[1], err))
		}
	}
	cites := codeAnchor.FindAllSubmatch(doc, -1)
	for _, m := range pkgCitation.FindAllSubmatch(doc, -1) {
		if string(m[2]) != "go" {
			cites = append(cites, m)
		}
	}
	declared := make(map[string]map[string]bool)
	for _, m := range cites {
		path, name := string(m[1]), string(m[2])
		names, ok := declared[path]
		if !ok {
			var err error
			if names, err = declarations(path); err != nil {
				errs = append(errs, err)
			}
			declared[path] = names
		}
		if names != nil && !names[name] {
			errs = append(errs, fmt.Errorf("%s: %s declares no %s", m[0], path, name))
		}
	}
	return errs
}

// declarations parses a Go file, or a package directory's non-test
// files, and returns the top-level names: funcs, types, constants and
// variables, and methods as Type.Method.
func declarations(path string) (map[string]bool, error) {
	files := []string{path}
	if !strings.HasSuffix(path, ".go") {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = nil
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				files = append(files, filepath.Join(path, n))
			}
		}
	}
	names := make(map[string]bool)
	for _, file := range files {
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, goparser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		addDeclarations(f, names)
	}
	return names, nil
}

// addDeclarations adds f's top-level names to names.
func addDeclarations(f *goast.File, names map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *goast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				name = receiverType(d.Recv.List[0].Type) + "." + name
			}
			names[name] = true
		case *goast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *goast.TypeSpec:
					names[s.Name.Name] = true
				case *goast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
}

// receiverType is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverType(e goast.Expr) string {
	for {
		switch x := e.(type) {
		case *goast.StarExpr:
			e = x.X
		case *goast.IndexExpr:
			e = x.X
		case *goast.IndexListExpr:
			e = x.X
		case *goast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
