// Command docscheck is the documentation gate run by `make docs-check` and
// CI: it fails when an exported identifier in the given package directories
// lacks a doc comment, so `go doc` output stays a usable reference instead
// of rotting one undocumented export at a time, and when a Markdown heading
// in one of those directories names a PR: documents are organised by how
// the system works, not by when a part of it landed.
//
//	go run ./cmd/docscheck ./internal/ledger ./internal/ledger/disk .
//
// It checks package comments, exported top-level functions, methods with
// exported receivers, types, consts, and vars (a const/var block's group
// comment covers its members), and the exported fields of exported structs
// and methods of exported interfaces. Test files are ignored.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <package dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range dirs {
		missing, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d undocumented export(s) or PR-named heading(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns a
// "file:line: identifier" line for every undocumented export, followed by
// checkHeadings' lines for the directory's Markdown files.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Attribute the missing package comment to any one file.
			for _, f := range pkg.Files {
				report(f.Package, "package "+pkg.Name+" has no package comment")
				break
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				checkDecl(decl, report)
			}
		}
	}
	headings, err := checkHeadings(dir)
	return append(missing, headings...), err
}

// prHeading matches a Markdown heading that names a PR ("## Foo (PR 3)").
var prHeading = regexp.MustCompile(`^#{1,6}\s.*\bPRs?\s*#?\d`)

// checkHeadings returns a "file:line: heading" line for every heading of
// dir's Markdown files that names a PR; fenced code blocks are skipped.
func checkHeadings(dir string) ([]string, error) {
	var bad []string
	files, _ := filepath.Glob(filepath.Join(dir, "*.md")) // the pattern is well formed
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			fenced = fenced != strings.HasPrefix(line, "```")
			if !fenced && prHeading.MatchString(line) {
				bad = append(bad, fmt.Sprintf("%s:%d: heading names a PR: %s", filepath.ToSlash(name), i+1, line))
			}
		}
	}
	return bad, nil
}

// checkDecl reports undocumented exports in one top-level declaration.
func checkDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return
		}
		if d.Doc == nil {
			report(d.Pos(), "func "+funcName(d))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type "+s.Name.Name)
				}
				checkTypeMembers(s, report)
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name.Pos(), tokenKind(d.Tok)+" "+name.Name)
					}
				}
			}
		}
	}
}

// checkTypeMembers reports undocumented exported struct fields and interface
// methods of an exported type.
func checkTypeMembers(s *ast.TypeSpec, report func(token.Pos, string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			for _, name := range f.Names {
				if name.IsExported() && f.Doc == nil && f.Comment == nil {
					report(name.Pos(), "field "+s.Name.Name+"."+name.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, name := range m.Names {
				if name.IsExported() && m.Doc == nil && m.Comment == nil {
					report(name.Pos(), "interface method "+s.Name.Name+"."+name.Name)
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package's surface).
// Plain functions count as exported receivers.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// funcName formats "Recv.Name" for methods and "Name" for functions.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// tokenKind renders the declaration keyword for a value spec.
func tokenKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
