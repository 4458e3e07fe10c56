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
// lists the functions, methods and exported identifiers nothing but
// tests references, and a third (UnreadFields) the struct fields that
// production code writes but never reads.
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
	pkgs   map[string]*loaded
}

// loaded is one type-checked package's non-test files. A module package
// is checked once and every importer sees that instance, so its types
// compare equal from whichever package they are reached.
type loaded struct {
	pkg   *types.Package
	info  *types.Info // nil for a standard-library package
	files []*ast.File
}

// NewSweeper returns a sweeper for the module rooted at root.
func NewSweeper(root, module string) *Sweeper {
	fset := token.NewFileSet()
	return &Sweeper{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*loaded{},
	}
}

// Import resolves module-internal paths against the repo tree (parsing
// and checking the package source, memoized) and everything else via
// the stdlib source importer. Type-check errors are tolerated: a
// partially checked package still resolves most expression types, and
// the sweep fails open on the rest.
func (sw *Sweeper) Import(path string) (*types.Package, error) {
	l, err := sw.load(path)
	if err != nil {
		return nil, err
	}
	return l.pkg, nil
}

func (sw *Sweeper) load(path string) (*loaded, error) {
	if l, ok := sw.pkgs[path]; ok {
		return l, nil
	}
	l := &loaded{}
	if path == sw.module || strings.HasPrefix(path, sw.module+"/") {
		files, err := sw.parseDir(filepath.Join(sw.root, strings.TrimPrefix(path, sw.module)))
		if err != nil {
			return nil, err
		}
		l.files = files
		l.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: sw,
			Error:    func(error) {}, // tolerate; resolution is fail-open
		}
		l.pkg, _ = conf.Check(path, sw.fset, files, l.info)
	} else {
		p, err := sw.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.pkg = p
	}
	sw.pkgs[path] = l
	return l, nil
}

// loadDir loads the package in the directory rel of the root.
func (sw *Sweeper) loadDir(rel string) (*loaded, error) {
	if rel == "." {
		return sw.load(sw.module)
	}
	return sw.load(sw.module + "/" + filepath.ToSlash(rel))
}

// parseDir parses a directory's non-test Go files with comments.
func (sw *Sweeper) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(sw.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// SweepDir lints one package directory (non-test files) and returns the
// unexplained map-range findings, ordered by position.
func (sw *Sweeper) SweepDir(rel string) ([]Finding, error) {
	l, err := sw.loadDir(rel)
	if err != nil {
		return nil, err
	}
	files, info := l.files, l.info

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

// PackageDirs lists, relative to the root and sorted, every directory
// under rel that holds a non-test Go file.
func (sw *Sweeper) PackageDirs(rel string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(filepath.Join(sw.root, rel), func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != sw.root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				dirs = append(dirs, relPath(sw.root, dir))
				break
			}
		}
		return err
	})
	return dirs, err
}

// Export is one identifier no non-test file references.
type Export struct {
	Pos  string // file:line of the declaration
	Name string // "mve.Monitor.RequestPromote", "core.FleetAborted"
}

func (e Export) String() string { return fmt.Sprintf("%s: %s", e.Pos, e.Name) }

// libraryCalled are the standard-library interfaces the library finds by
// type assertion on a value it was handed as `any` (fmt's verbs,
// encoding/json): no caller ever converts to them, so their
// implementations count as called by the library. The universe's error
// is added to them.
var libraryCalled = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
}

// TestOnlyExports lists the identifiers declared in the rels package
// directories that no non-test Go file under the root references:
// production code kept alive by its own tests, or by nothing. Swept are
// every function and method, exported or not (main and init aside), the
// methods interface types declare, and the exported types, constants,
// variables and fields of exported struct types. Every directory under
// the root is a user, nested modules included (their imports of this
// module resolve against the tree); directories whose name starts with
// "." or is "testdata" are skipped. A reference from the declaring
// package counts like any other.
//
// A method nobody names still counts as used when it implements an
// interface method a non-test file calls (or the library does, see
// libraryCalled), or when a non-test file converts its receiver type to
// an interface that has the method — the method is then what makes the
// conversion compile, and the interface's own declaration of it is what
// the sweep reports if nothing calls it. Values are not followed, so
// this rule can keep a method whose type never reaches the call; every
// other limit fails open like the map sweep's: a use or conversion the
// checker cannot resolve marks nothing, which can only add findings,
// never hide one — each is then settled by hand in the caller's
// allowlist.
func (sw *Sweeper) TestOnlyExports(rels []string) ([]Export, error) {
	dirs, err := sw.PackageDirs(".")
	if err != nil {
		return nil, err
	}
	used := map[token.Pos]bool{}
	called := map[string][]*types.Interface{} // by Func.Id: interfaces whose method of that name is called
	converted := map[*types.TypeName][]*types.Interface{}
	seen := map[*types.Func]bool{}
	call := func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
			called[fn.Id()] = append(called[fn.Id()], iface)
		}
	}
	for _, dir := range dirs {
		l, err := sw.loadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, obj := range l.info.Uses { // maporder: ok — fills sets
			used[obj.Pos()] = true
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				call(fn)
			}
		}
		for _, f := range l.files {
			conversions(l.info, f, func(from types.Type, to *types.Interface) {
				if ptr, ok := from.(*types.Pointer); ok {
					from = ptr.Elem()
				}
				if named, ok := from.(*types.Named); ok {
					converted[named.Origin().Obj()] = append(converted[named.Origin().Obj()], to)
				}
			})
		}
	}
	call(types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	for _, name := range libraryCalled {
		l, err := sw.load(name[0])
		if err != nil {
			return nil, err
		}
		iface := l.pkg.Scope().Lookup(name[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			call(iface.Method(i))
		}
	}
	// implements reports whether fn is a method reached through an
	// interface: one that has a called method of fn's name and that fn's
	// receiver type implements, or one the receiver type is converted to.
	// (An interface's own declaration of a method is neither.)
	implements := func(fn *types.Func) bool {
		recvVar := fn.Type().(*types.Signature).Recv()
		if recvVar == nil {
			return false
		}
		recv := recvVar.Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, iface := range called[fn.Id()] {
			if types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		if named, ok := recv.(*types.Named); ok {
			for _, iface := range converted[named.Origin().Obj()] {
				for i := 0; i < iface.NumMethods(); i++ {
					if iface.Method(i).Id() == fn.Id() {
						return true
					}
				}
			}
		}
		return false
	}

	var out []Export
	for _, rel := range rels {
		l, err := sw.loadDir(rel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		for _, f := range l.files {
			for _, id := range sweptDecls(f) {
				if used[id.ident.Pos()] {
					continue
				}
				if fn, ok := l.info.Defs[id.ident].(*types.Func); ok && implements(fn) {
					continue
				}
				pos := sw.fset.Position(id.ident.Pos())
				out = append(out, Export{
					Pos:  fmt.Sprintf("%s:%d", relPath(sw.root, pos.Filename), pos.Line),
					Name: f.Name.Name + "." + id.qualified,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// conversions calls yield for every value of a non-interface type that f
// turns into an interface with methods — explicitly, or by passing,
// assigning, returning, sending it or placing it in a composite literal.
func conversions(info *types.Info, f *ast.File, yield func(from types.Type, to *types.Interface)) {
	emit := func(to types.Type, e ast.Expr) {
		from := info.TypeOf(e)
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		if iface, ok := to.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			yield(from, iface)
		}
	}
	// walk inspects root, whose return statements belong to a function of
	// signature sig; a nested function is walked under its own.
	var walk func(root ast.Node, sig *types.Signature)
	walk = func(root ast.Node, sig *types.Signature) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					own, _ := info.TypeOf(n.Name).(*types.Signature)
					walk(n.Body, own)
				}
				return false
			case *ast.FuncLit:
				own, _ := info.TypeOf(n).(*types.Signature)
				walk(n.Body, own)
				return false
			case *ast.ReturnStmt:
				if sig != nil && sig.Results().Len() == len(n.Results) {
					for i, e := range n.Results {
						emit(sig.Results().At(i).Type(), e)
					}
				}
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.Type == nil {
					break // unresolved callee: fail open
				}
				if tv.IsType() {
					if len(n.Args) == 1 {
						emit(tv.Type, n.Args[0])
					}
					break
				}
				callee, ok := tv.Type.Underlying().(*types.Signature)
				if !ok || callee.Params().Len() == 0 {
					break
				}
				last := callee.Params().Len() - 1
				for i, arg := range n.Args {
					param := callee.Params().At(min(i, last)).Type()
					if elems, ok := param.(*types.Slice); ok && callee.Variadic() && i >= last && !n.Ellipsis.IsValid() {
						param = elems.Elem()
					}
					emit(param, arg)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, e := range n.Rhs {
						emit(info.TypeOf(n.Lhs[i]), e)
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, e := range n.Values {
						emit(info.TypeOf(n.Type), e)
					}
				}
			case *ast.SendStmt:
				if t := info.TypeOf(n.Chan); t != nil {
					if ch, ok := t.Underlying().(*types.Chan); ok {
						emit(ch.Elem(), n.Value)
					}
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if t == nil {
					break
				}
				for i, elt := range n.Elts {
					kv, keyed := elt.(*ast.KeyValueExpr)
					if keyed {
						elt = kv.Value
					}
					switch u := t.Underlying().(type) {
					case *types.Struct:
						if !keyed {
							if i < u.NumFields() {
								emit(u.Field(i).Type(), elt)
							}
						} else if key, ok := kv.Key.(*ast.Ident); ok {
							if field, ok := info.Uses[key].(*types.Var); ok {
								emit(field.Type(), elt)
							}
						}
					case *types.Slice:
						emit(u.Elem(), elt)
					case *types.Array:
						emit(u.Elem(), elt)
					case *types.Map:
						emit(u.Elem(), elt)
						if keyed {
							emit(u.Key(), kv.Key)
						}
					}
				}
			}
			return true
		})
	}
	walk(f, nil)
}

type sweptDecl struct {
	ident     *ast.Ident
	qualified string // "Type.Method", "Type.Field" or the bare name
}

// sweptDecls collects what TestOnlyExports holds a file to: its functions
// and methods, the methods of its interface types, its exported
// package-level identifiers and the exported fields of its exported
// struct types.
func sweptDecls(f *ast.File) []sweptDecl {
	var out []sweptDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				if name := d.Name.Name; name != "main" && name != "init" && name != "_" {
					out = append(out, sweptDecl{ident: d.Name, qualified: name})
				}
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				out = append(out, sweptDecl{ident: d.Name, qualified: id.Name + "." + d.Name.Name})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, sweptDecl{ident: id, qualified: id.Name})
						}
					}
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, sweptDecl{ident: s.Name, qualified: s.Name.Name})
					}
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						if s.Name.IsExported() {
							fields = t.Fields
						}
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, id := range field.Names {
							if _, iface := s.Type.(*ast.InterfaceType); iface || id.IsExported() {
								out = append(out, sweptDecl{ident: id, qualified: s.Name.Name + "." + id.Name})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// UnreadFields lists the fields of the struct types declared at package
// level in the rels package directories — and of the anonymous structs
// nested in them — that no non-test Go file under the root reads. Every
// directory under the root is a reader, nested modules included, as for
// TestOnlyExports. A use of a field is a read unless it writes: the left
// side of an assignment (compound ones too) or the operand of ++ or --,
// either itself or as the base of an index (x.f[k] = v, x.f[k]++); the
// first argument of delete; the x.f in x.f = append(x.f, …); a key in a
// composite literal; or any use inside a method named Clone or clone,
// which copies state but reads none of it for anybody. A field with a
// struct tag is never reported:
// encoding/json and its kind read it by reflection. An embedded field
// counts as read where a promoted selector goes through it, and a field
// of a generic type where any instantiation reads it.
func (sw *Sweeper) UnreadFields(rels []string) ([]Export, error) {
	dirs, err := sw.PackageDirs(".")
	if err != nil {
		return nil, err
	}
	read := map[token.Pos]bool{}
	for _, dir := range dirs {
		l, err := sw.loadDir(dir)
		if err != nil {
			return nil, err
		}
		fieldReads(l.info, l.files, func(v *types.Var) { read[v.Origin().Pos()] = true })
	}
	var out []Export
	var sweep func(owner string, st *types.Struct)
	sweep = func(owner string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if inner, ok := f.Type().(*types.Struct); ok {
				sweep(owner+"."+f.Name(), inner)
			}
			if st.Tag(i) == "" && f.Name() != "_" && !read[f.Pos()] {
				pos := sw.fset.Position(f.Pos())
				out = append(out, Export{
					Pos:  fmt.Sprintf("%s:%d", relPath(sw.root, pos.Filename), pos.Line),
					Name: owner + "." + f.Name(),
				})
			}
		}
	}
	for _, rel := range rels {
		l, err := sw.loadDir(rel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rel, err)
		}
		for _, name := range l.pkg.Scope().Names() {
			if tn, ok := l.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					sweep(l.pkg.Name()+"."+name, st)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// fieldReads calls read for every field a package's files read, by name
// or as an embedded field a promoted selector passes through. info is
// the package's, which records the uses of all its files.
func fieldReads(info *types.Info, files []*ast.File, read func(*types.Var)) {
	written := map[*ast.Ident]bool{}
	// write marks the field e names, or indexes into, as written.
	write := func(e ast.Expr) {
		e = ast.Unparen(e)
		for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
			e = ast.Unparen(ix.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	builtin := func(call *ast.CallExpr, name string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == name
	}
	inClone := false
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				write(lhs)
				if len(n.Rhs) != len(n.Lhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && builtin(call, "append") && len(call.Args) > 0 &&
					types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(lhs)) {
					write(call.Args[0])
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CallExpr:
			if builtin(n, "delete") && len(n.Args) > 0 {
				write(n.Args[0])
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						written[key] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if inClone {
				written[n.Sel] = true
				break
			}
			sel := info.Selections[n]
			if sel == nil {
				break
			}
			t, path := sel.Recv(), sel.Index()
			for _, i := range path[:len(path)-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break // fail open
				}
				read(st.Field(i))
				t = st.Field(i).Type()
			}
		}
		return true
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			inClone = ok && fn.Recv != nil && (fn.Name.Name == "Clone" || fn.Name.Name == "clone")
			ast.Inspect(d, inspect)
		}
	}
	for id, obj := range info.Uses { // maporder: ok — fills a set
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read(v)
		}
	}
}
