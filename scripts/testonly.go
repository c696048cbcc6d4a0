//go:build ignore

// Command testonly fails when production code exists only for its tests.
// It reports every package-level function, method and type declared in a
// non-test file that production code never reaches but tests do: its
// only uses are in _test.go files, or in other declarations that only
// tests reach. Declarations that nothing uses at all are left to other
// linters. It is a docs-hygiene gate wired into CI
// (.github/workflows/ci.yml).
//
// Usage: go run scripts/testonly.go
//
// Run it from the repository root. Every package of the module is
// type-checked from source together with its tests, and so is the
// perfbench module, which imports this one. Production code is whatever
// is reachable from a root:
//
//   - the main and init functions;
//   - the initializers of package-level variables and constants;
//   - the exported API of the root package (the library facade);
//   - methods that satisfy an interface, such as String for fmt.Stringer
//     or Int63 for rand.Source, since calls through the interface do not
//     name them; the errors package's Unwrap, Is and As count too.
//
// A use inside the symbol's own declaration (recursion) does not count,
// and neither does a type's use in its own methods. Each finding must be
// listed in allowed with a one-line reason, and every entry in allowed
// must still be a finding.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowed maps each accepted finding to the reason it stays: a reference
// implementation, a validator, a fault-injection hook, or a shared test
// fixture.
var allowed = map[string]string{
	"repro/internal/congest.Result.Accepted": "validator: the all-accept check of one-sided tests",
	"repro/internal/congest.StepFunc":        "shared test fixture: one-closure step programs for engine tests",
	"repro/internal/core.AttachmentLabel":    "reference implementation: central endpoint labels with the attachment-position fix",
	"repro/internal/core.ComputeLabels":      "reference implementation: central §2.2.2 node labels",
	"repro/internal/core.CountViolations":    "validator: counts Definition 7 violating edges (Claim 10, Corollary 9)",
	"repro/internal/core.EdgePositions":      "reference implementation: central attachment positions of every edge",
	"repro/internal/core.NonTreeEdges":       "reference implementation: central non-tree edge list",
	"repro/internal/corpus.ByName":           "shared test fixture: looks up a corpus family by name",
	"repro/internal/faultpoint.Arm":          "fault-injection hook",
	"repro/internal/faultpoint.Disarm":       "fault-injection hook",
	"repro/internal/faultpoint.Hits":         "fault-injection hook",
	"repro/internal/faultpoint.Reset":        "fault-injection hook",

	"repro/internal/forest.Arboricity3Evidence":     "validator: certifies arboricity above 3",
	"repro/internal/forest.CheckAcyclicOrientation": "validator: checks an H-partition orientation",
	"repro/internal/forest.CheckProperColoring":     "validator: checks a pseudo-forest coloring",
	"repro/internal/forest.ColorPseudoForest":       "reference implementation: sequential Cole-Vishkin coloring",
	"repro/internal/forest.HPartition":              "reference implementation: sequential Barenboim-Elkin H-partition",
	"repro/internal/forest.HPartitionResult":        "reference implementation: result of HPartition",

	"repro/internal/graph.ConnectParts":               "shared test fixture: joins components into a connected input",
	"repro/internal/graph.Graph.DegeneracyOrder":      "validator: brackets arboricity",
	"repro/internal/graph.Graph.Diameter":             "validator: exact part diameter for the Claim 4 bound",
	"repro/internal/graph.Graph.Eccentricity":         "validator: BFS eccentricity behind Diameter",
	"repro/internal/graph.Graph.Girth":                "validator: certifies the girth of lower-bound instances",
	"repro/internal/graph.Graph.IsBipartite":          "validator: reference for the bipartiteness tester",
	"repro/internal/graph.Graph.IsConnected":          "validator: checks generators and parts",
	"repro/internal/graph.Graph.IsTree":               "validator: reference for the cycle-freeness tester",
	"repro/internal/graph.Graph.OddCycleEdge":         "validator: witnesses non-bipartiteness",
	"repro/internal/graph.Graph.RemoveEdges":          "shared test fixture: builds subgraphs for invariant tests",
	"repro/internal/graph.Graph.ShortestCycleThrough": "validator: shortest cycle through an edge, behind Girth",
	"repro/internal/graph.TreePlusRandomEdges":        "shared test fixture: inputs far from cycle-free",
	"repro/internal/graphio.HashString":               "shared test fixture: hex form of the graph hash",

	"repro/internal/lowerbound.Instance.GirthAtLeast": "validator: checks the Theorem 2 girth surgery",

	"repro/internal/partition.AnyRejected":      "validator: Stage I reject evidence over all outcomes",
	"repro/internal/partition.CollectEN":        "shared test fixture: runs the Elkin-Neiman baseline alone",
	"repro/internal/partition.MaxPartDiameter":  "validator: Claim 4 part-diameter measure",
	"repro/internal/partition.NumParts":         "validator: counts parts for merge-progress checks",
	"repro/internal/partition.ValidateOutcomes": "validator: Lemma 6 partition guarantees",

	"repro/internal/planar.BruteForcePlanar":              "reference implementation: exhaustive planarity check",
	"repro/internal/planar.Embedding.CCWNext":             "validator: rotation-system walk",
	"repro/internal/planar.Embedding.CWNext":              "validator: rotation-system walk",
	"repro/internal/planar.Embedding.CountFaces":          "validator: Euler-formula check of embeddings",
	"repro/internal/planar.Embedding.Degree":              "validator: rotation-system size",
	"repro/internal/planar.Embedding.FaceOf":              "validator: face traversal",
	"repro/internal/planar.Embedding.Validate":            "validator: checks a rotation system",
	"repro/internal/planar.Genus":                         "reference implementation: exhaustive genus",
	"repro/internal/planar.OuterplanarDistanceLowerBound": "validator: certifies outerplanarity distance",

	"repro/internal/service.Manager.CacheLen":  "shared test fixture: memory-tier size for cache tests",
	"repro/internal/service.Manager.Run":       "shared test fixture: synchronous Submit then Wait",
	"repro/internal/service.Submission.Cancel": "shared test fixture: detaches one coalesced submitter",

	"repro/internal/spanner.VerifySymmetric": "validator: checks that the per-node spanner views agree",
}

// modulePath is the import path of the repository root.
const modulePath = "repro"

// symbol is one candidate declaration.
type symbol struct {
	key      string
	pos      token.Position
	kind     string
	recv     *types.Named // methods: the receiver's named type
	method   string
	testUsed bool
}

// checker accumulates declarations, references and interfaces over all
// packages.
type checker struct {
	fset    *token.FileSet
	imp     types.ImporterFrom
	syms    map[string]*symbol
	roots   map[string]bool
	edges   map[string]map[string]bool // user -> used (production files only)
	ifaces  map[string]*types.Interface
	visited map[*types.Package]bool
	errs    []string
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	fset := token.NewFileSet()
	c := &checker{
		fset:    fset,
		imp:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		syms:    map[string]*symbol{},
		roots:   map[string]bool{},
		edges:   map[string]map[string]bool{},
		ifaces:  map[string]*types.Interface{},
		visited: map[*types.Package]bool{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		return c.checkDir(root, path)
	})
	if err != nil {
		fail(err)
	}
	if len(c.errs) > 0 {
		fail(fmt.Errorf("type errors:\n%s", strings.Join(c.errs, "\n")))
	}
	c.markInterfaceMethods()
	live := c.reach(c.roots)
	tested := map[string]bool{}
	for key, s := range c.syms {
		if s.testUsed {
			tested[key] = true
		}
	}
	tested = c.reach(tested)

	var found []*symbol
	for key, s := range c.syms {
		if s.kind != "" && !live[key] && tested[key] {
			found = append(found, s)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	bad := 0
	seen := map[string]bool{}
	for _, s := range found {
		seen[s.key] = true
		if _, ok := allowed[s.key]; ok {
			continue
		}
		rel, _ := filepath.Rel(root, s.pos.Filename)
		fmt.Printf("%s:%d: %s %s is used only by tests\n", filepath.ToSlash(rel), s.pos.Line, s.kind, s.key)
		bad++
	}
	var stale []string
	for key := range allowed {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		fmt.Printf("allowed entry %s is no longer a finding; remove it\n", key)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "testonly: %d findings (%d listed in allowed)\n", bad, len(found)-bad+len(stale))
		os.Exit(1)
	}
	fmt.Printf("testonly: %d listed findings, no new ones\n", len(found))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "testonly: %v\n", err)
	os.Exit(2)
}

// checkDir type-checks the package in dir twice if it has external tests:
// once with its in-package tests, once as the external test package.
func (c *checker) checkDir(root, dir string) error {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	path := modulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	c.check(path, dir, bp.GoFiles, bp.TestGoFiles, path == modulePath)
	if len(bp.XTestGoFiles) > 0 {
		c.check(path+"_test", dir, nil, bp.XTestGoFiles, false)
	}
	return nil
}

// declRange is the extent of one top-level declaration of a file and the
// candidate key it defines ("" for contexts that are roots: variable and
// constant initializers).
type declRange struct {
	pos, end  token.Pos
	key       string
	recvOf    string // methods: key of the receiver type
	recvRange [2]token.Pos
}

func (c *checker) check(path, dir string, prodFiles, testFiles []string, facade bool) {
	var files []*ast.File
	isTest := map[*ast.File]bool{}
	for i, name := range append(append([]string(nil), prodFiles...), testFiles...) {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			c.errs = append(c.errs, err.Error())
			return
		}
		files = append(files, f)
		isTest[f] = i >= len(prodFiles)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c.imp, Error: func(err error) {
		c.errs = append(c.errs, err.Error())
	}}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if pkg == nil {
		return
	}
	c.collectInterfaces(pkg, info)

	ranges := map[*ast.File][]declRange{}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				r := declRange{pos: d.Pos(), end: d.End(), key: objKey(obj)}
				if d.Recv != nil {
					r.recvRange = [2]token.Pos{d.Recv.Pos(), d.Recv.End()}
					if named := recvNamed(obj); named != nil {
						r.recvOf = objKey(named.Obj())
					}
				}
				ranges[f] = append(ranges[f], r)
				if isTest[f] {
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				s := c.declare(r.key, kind, d.Name.Pos())
				if d.Recv != nil {
					s.recv, s.method = recvNamed(obj), obj.Name()
				}
				exported := d.Name.IsExported() && (d.Recv == nil || r.recvOf != "" && ast.IsExported(recvNamed(obj).Obj().Name()))
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") || facade && exported {
					c.roots[r.key] = true
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					ranges[f] = append(ranges[f], declRange{pos: d.Pos(), end: d.End()})
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					obj := info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					r := declRange{pos: ts.Pos(), end: ts.End(), key: objKey(obj)}
					ranges[f] = append(ranges[f], r)
					if !isTest[f] {
						c.declare(r.key, "type", ts.Name.Pos())
						if facade && ts.Name.IsExported() {
							c.roots[r.key] = true
						}
					}
				}
			}
		}
	}

	fileOf := map[*token.File]*ast.File{}
	for _, f := range files {
		fileOf[c.fset.File(f.Pos())] = f
	}
	for id, obj := range info.Uses {
		key := candidateKey(obj)
		if key == "" {
			continue
		}
		f := fileOf[c.fset.File(id.Pos())]
		if f == nil {
			continue
		}
		var user *declRange
		for i := range ranges[f] {
			if r := &ranges[f][i]; r.pos <= id.Pos() && id.Pos() < r.end {
				user = r
				break
			}
		}
		if user != nil {
			if user.recvRange[0] <= id.Pos() && id.Pos() < user.recvRange[1] {
				continue // a method's receiver type
			}
			if user.key == key || user.recvOf == key {
				continue // recursion, or a type used in its own methods
			}
		}
		if isTest[f] {
			c.testUse(key)
			continue
		}
		if user == nil || user.key == "" {
			c.roots[key] = true // a variable or constant initializer
			continue
		}
		if c.edges[user.key] == nil {
			c.edges[user.key] = map[string]bool{}
		}
		c.edges[user.key][key] = true
	}
}

func (c *checker) declare(key, kind string, pos token.Pos) *symbol {
	s := c.syms[key]
	if s == nil {
		s = &symbol{key: key}
		c.syms[key] = s
	}
	s.kind, s.pos = kind, c.fset.Position(pos)
	return s
}

// testUse records a use in a test file. The symbol may be declared in a
// package checked later, or in a test file (then it never gets a kind).
func (c *checker) testUse(key string) {
	if s := c.syms[key]; s != nil {
		s.testUsed = true
		return
	}
	c.syms[key] = &symbol{key: key, testUsed: true}
}

// collectInterfaces records every interface type the package mentions or
// can see through its imports, keyed by its type string.
func (c *checker) collectInterfaces(pkg *types.Package, info *types.Info) {
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			c.ifaces[types.TypeString(it, qualifier)] = it
		}
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	add(types.Universe.Lookup("error").Type())
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if c.visited[p] {
			return
		}
		c.visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, q := range pkg.Imports() {
		walk(q)
	}
}

// markInterfaceMethods makes a root of every method that implements a
// method of an interface its receiver type satisfies. Types from
// different type-checks are compared by method names and signature
// strings.
func (c *checker) markInterfaceMethods() {
	msets := map[*types.Named]map[string]string{}
	for key, s := range c.syms {
		if s.recv == nil {
			continue
		}
		ms := msets[s.recv]
		if ms == nil {
			ms = map[string]string{}
			set := types.NewMethodSet(types.NewPointer(s.recv))
			for i := 0; i < set.Len(); i++ {
				f := set.At(i).Obj()
				ms[f.Name()] = sigString(f.Type().(*types.Signature))
			}
			msets[s.recv] = ms
		}
		if errorsMethods[s.method] == ms[s.method] {
			c.roots[key] = true
			continue
		}
		for _, it := range c.ifaces {
			if implements(ms, it) && it.NumMethods() > 0 && hasMethod(it, s.method) {
				c.roots[key] = true
				break
			}
		}
	}
}

// errorsMethods are the methods the errors package calls through
// interfaces it declares inside function bodies, by signature.
var errorsMethods = map[string]string{
	"Unwrap": "() (error)",
	"Is":     "(error) (bool)",
	"As":     "(any) (bool)",
}

func implements(ms map[string]string, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if ms[m.Name()] != sigString(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigString renders a signature's parameter and result types without
// their names, which implementations are free to change.
func sigString(sig *types.Signature) string {
	tuple := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qualifier)
		}
		if variadic {
			parts[len(parts)-1] = "..." + strings.TrimPrefix(parts[len(parts)-1], "[]")
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return tuple(sig.Params(), sig.Variadic()) + " " + tuple(sig.Results(), false)
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// reach returns the candidates reachable from from through production
// references.
func (c *checker) reach(from map[string]bool) map[string]bool {
	seen := map[string]bool{}
	var work []string
	for key := range from {
		seen[key] = true
		work = append(work, key)
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for used := range c.edges[key] {
			if !seen[used] {
				seen[used] = true
				work = append(work, used)
			}
		}
	}
	return seen
}

// candidateKey returns the key of a package-level function, method or
// type of this module, or "" for any other object.
func candidateKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if p := obj.Pkg().Path(); p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if o.Type().(*types.Signature).Recv() == nil && o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return objKey(o)
	case *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return ""
		}
		return objKey(o)
	}
	return ""
}

// objKey names an object as package path, receiver type (for methods)
// and name, e.g. "repro/internal/congest.StepAPI.Send".
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if named := recvNamed(f); named != nil {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func recvNamed(f *types.Func) *types.Named {
	recv := f.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

func qualifier(p *types.Package) string { return p.Path() }
