// Package detlint holds determinism lint sweeps for the simulation
// runtime. Go randomizes map iteration order on purpose, so a `for
// range` over a map whose order leaks into scheduling, trace output, or
// an artifact is a latent nondeterminism bug — the class of defect the
// sharded runtime's run-twice property tests exist to catch after the
// fact. The sweep here catches them at the source level instead: every
// map range in the determinism-critical packages must either be
// rewritten (sorted keys, slice of entries) or carry a `maporder:`
// comment on the statement (or the line above) explaining why its order
// cannot be observed.
//
// A second sweep over the same type-checked packages (TestOnlyExports)
// lists exported identifiers nothing but tests references.
package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Marker is the allowlist token: any comment containing it, placed on
// the range statement's line or the line directly above, suppresses the
// finding. Convention: `// maporder: ok — <why the order is harmless>`.
const Marker = "maporder:"

// Finding is one unexplained map-range site.
type Finding struct {
	Pos  string // file:line
	Expr string // the ranged expression's source text
}

func (f Finding) String() string { return fmt.Sprintf("%s: range over map %s", f.Pos, f.Expr) }

// Sweeper type-checks repo packages with a module-path-aware importer
// so map types are recognized across package boundaries. Resolution is
// fail-open: an expression whose type cannot be determined (broken
// import, exotic construct) is skipped rather than flagged, so the lint
// never produces false positives from its own tooling limits.
type Sweeper struct {
	root   string // repository root (directory holding go.mod)
	module string // module path prefix, e.g. "mvedsua"
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
}

// NewSweeper returns a sweeper for the module rooted at root.
func NewSweeper(root, module string) *Sweeper {
	fset := token.NewFileSet()
	return &Sweeper{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
	}
}

// Import resolves module-internal paths against the repo tree (parsing
// and checking the package source, memoized) and everything else via
// the stdlib source importer. Type-check errors are tolerated: a
// partially checked package still resolves most expression types, and
// the sweep fails open on the rest.
func (sw *Sweeper) Import(path string) (*types.Package, error) {
	if p, ok := sw.pkgs[path]; ok {
		return p, nil
	}
	if path == sw.module || strings.HasPrefix(path, sw.module+"/") {
		dir := filepath.Join(sw.root, strings.TrimPrefix(path, sw.module))
		files, _, err := sw.parseDir(dir)
		if err != nil {
			return nil, err
		}
		pkg, _ := sw.check(path, files)
		sw.pkgs[path] = pkg
		return pkg, nil
	}
	p, err := sw.std.Import(path)
	if err == nil {
		sw.pkgs[path] = p
	}
	return p, err
}

// parseDir parses a directory's non-test Go files with comments.
func (sw *Sweeper) parseDir(dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(sw.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, f)
		names = append(names, path)
	}
	sort.Strings(names)
	return files, names, nil
}

// check type-checks files as package path, tolerating errors.
func (sw *Sweeper) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{
		Importer: sw,
		Error:    func(error) {}, // tolerate; resolution is fail-open
	}
	pkg, _ := conf.Check(path, sw.fset, files, info)
	return pkg, info
}

// SweepDir lints one package directory (non-test files) and returns the
// unexplained map-range findings, ordered by position.
func (sw *Sweeper) SweepDir(rel string) ([]Finding, error) {
	dir := filepath.Join(sw.root, rel)
	files, _, err := sw.parseDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := sw.module + "/" + filepath.ToSlash(rel)
	_, info := sw.check(importPath, files)

	var findings []Finding
	for _, f := range files {
		allowed := allowedLines(sw.fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true // unresolved: fail open
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := sw.fset.Position(rs.Pos())
			if allowed[pos.Line] || allowed[pos.Line-1] {
				return true
			}
			findings = append(findings, Finding{
				Pos:  fmt.Sprintf("%s:%d", relPath(sw.root, pos.Filename), pos.Line),
				Expr: exprString(rs.X),
			})
			return true
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}

// Sweep lints several package directories and concatenates findings.
func (sw *Sweeper) Sweep(rels []string) ([]Finding, error) {
	var all []Finding
	for _, rel := range rels {
		fs, err := sw.SweepDir(rel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		all = append(all, fs...)
	}
	return all, nil
}

// allowedLines collects the lines carrying a Marker comment. A marker
// on line L allows a range statement on L (trailing comment) or L+1
// (comment above the statement) — handled by the caller checking both.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		hasMarker := false
		for _, c := range cg.List {
			if strings.Contains(c.Text, Marker) {
				hasMarker = true
				// Trailing comment: allows a range on its own line.
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
		if hasMarker {
			// A (possibly multi-line) group above the statement allows
			// the line after the group's end — so the marker may appear
			// anywhere in a wrapped explanatory comment.
			allowed[fset.Position(cg.End()).Line] = true
		}
	}
	return allowed
}

func relPath(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return filepath.ToSlash(r)
	}
	return path
}

// exprString renders the ranged expression compactly (identifiers and
// selectors cover every real site; anything else prints as <expr>).
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "<expr>"
}

// Export is one exported identifier no non-test file references.
type Export struct {
	Pos  string // file:line of the declaration
	Name string // "mve.Monitor.RequestPromote", "core.FleetAborted"
}

func (e Export) String() string { return fmt.Sprintf("%s: %s", e.Pos, e.Name) }

// TestOnlyExports lists the exported identifiers — functions, methods and
// fields of exported types, types, constants, variables — declared in the
// rels package directories that no non-test Go file under the root
// references: production code kept alive by its own tests, or by nothing.
// Every directory under the root is a user, nested modules included
// (their imports of this module resolve against the tree); directories
// whose name starts with "." or is "testdata" are skipped. Declarations
// and uses are matched by source position, so an identifier counts as
// used from its own package too. Resolution is fail-open like the map
// sweep's: a use the checker cannot resolve marks nothing, which can
// only add findings, never hide one — each is then settled by hand in
// the caller's allowlist.
func (sw *Sweeper) TestOnlyExports(rels []string) ([]Export, error) {
	used := map[string]bool{}
	err := filepath.WalkDir(sw.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != sw.root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		files, _, err := sw.parseDir(dir)
		if err != nil || len(files) == 0 {
			return err
		}
		_, info := sw.check(sw.module+"/"+filepath.ToSlash(relPath(sw.root, dir)), files)
		for _, obj := range info.Uses { // maporder: ok — fills a set
			if obj.Pos().IsValid() {
				used[sw.fset.Position(obj.Pos()).String()] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Export
	for _, rel := range rels {
		files, _, err := sw.parseDir(filepath.Join(sw.root, rel))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		for _, f := range files {
			for _, id := range exportedDecls(f) {
				pos := sw.fset.Position(id.ident.Pos())
				if !used[pos.String()] {
					out = append(out, Export{
						Pos:  fmt.Sprintf("%s:%d", relPath(sw.root, pos.Filename), pos.Line),
						Name: f.Name.Name + "." + id.qualified,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

type exportedDecl struct {
	ident     *ast.Ident
	qualified string // "Type.Method", "Type.Field" or the bare name
}

// exportedDecls collects a file's exported package-level identifiers and
// the exported methods and fields of its exported types.
func exportedDecls(f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, owner string) {
		if id.IsExported() {
			out = append(out, exportedDecl{id, owner + id.Name})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			owner := ""
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok || !id.IsExported() {
					continue
				}
				owner = id.Name + "."
			}
			add(d.Name, owner)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				case *ast.TypeSpec:
					add(s.Name, "")
					if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								add(id, s.Name.Name+".")
							}
						}
					}
				}
			}
		}
	}
	return out
}
