package onesided

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"regexp"
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

	// The check itself: a line number, a declaration that is gone and a
	// file that is gone are each reported; a method and a file that exist
	// are not.
	stale := []byte("`engine.go:231` `engine.go:Engine.noSuchMethod` `engine.go:Engine.Prepare` `internal/eval/onesided.go:evalContext` `internal/eval/nosuchfile.go` `internal/eval/level.go`")
	if errs := anchorErrors(stale); len(errs) != 4 {
		t.Fatalf("anchorErrors on four bad citations and two good ones = %v", errs)
	}
}

// anchorErrors reports every line-number anchor in doc, every bare
// `file.go` citation of a file that does not exist, and every
// `file.go:Name` anchor whose file does not declare Name.
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
	declared := make(map[string]map[string]bool)
	for _, m := range codeAnchor.FindAllSubmatch(doc, -1) {
		file, name := string(m[1]), string(m[2])
		names, ok := declared[file]
		if !ok {
			var err error
			if names, err = declarations(file); err != nil {
				errs = append(errs, err)
			}
			declared[file] = names
		}
		if names != nil && !names[name] {
			errs = append(errs, fmt.Errorf("anchor %s:%s: %s declares no %s", file, name, file, name))
		}
	}
	return errs
}

// declarations parses a Go file and returns its top-level names: funcs,
// types, constants and variables, and methods as Type.Method.
func declarations(file string) (map[string]bool, error) {
	f, err := goparser.ParseFile(token.NewFileSet(), file, nil, goparser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
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
	return names, nil
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
