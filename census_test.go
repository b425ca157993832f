package streamsched_test

// The census: every exported name in internal/, every published metric
// and every CLI flag has a reader. It type-checks the module's non-test
// code from source (the standard library comes from `go list -export`
// export data), so a name counts as read only where go/types resolves a
// use of that very object outside its own declaration.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// censusAllow holds the exported names that nothing in this module
// reads but that stay, each with its reason. A key is a package path
// below the module ("internal/realexec" covers the whole package) or a
// package name plus a name ("trace.Log", "trace.Log.Close").
var censusAllow = map[string]string{
	"internal/realexec":              "the one hardware corroboration of the cache model; read by BenchmarkE14RealMemory (cmd/experiments/README.md, E14)",
	"internal/jsonscan/jsonscantest": "test-support package: only _test.go files may import it",
	"trace.ProfileOrgsJobs":          "bench/layers times the organisation profile by replaying a recorded log through it",
	"hierarchy.ProfileHierJobs":      "bench/layers times the hierarchy profile by replaying a recorded log through it",
	"hierarchy.ProfileSharedJobs":    "bench/layers times the shared-L2 profile by replaying a recorded log through it",
	"trace.NewLog":                   "bench/layers records the log it replays",
	"trace.Log.EncodedBytes":         "bench/layers reports trace.log_bytes_per_access from it",
	"trace.Log.ForEach":              "bench/layers decodes the log to time trace.decode_ns_per_access",
	"trace.ProcLog.ForEach":          "bench/layers decodes the multiprocessor log",
	"trace.ProcLog.WindowStart":      "bench/layers checks the multiprocessor log's mark",
	"parallel.RunTraced":             "bench/layers times parallel.run_traced_ns_per_access through it",
	"hierarchy.HierSpec.Config":      "bench/layers builds each grid point's SimulateLog cross-check configuration with it",
	"hierarchy.SimulateLog":          "bench/layers cross-checks the hierarchy grid against it",
	"hierarchy.SimulateSharedLog":    "bench/layers cross-checks the shared grid against it",
	"cachesim.Cache.AccessBlock":     "bench/layers times cachesim.pointwise_ns_per_access through it",
	"obs.Snapshot.Counter":           "bench/layers reads the cold request's counters through it",
}

// stdMethods are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/json, net/http, sort, container/heap,
// flag): a method of one of these names counts as read.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Set": true,
}

type censusPkg struct {
	ImportPath, Dir, Export, Name            string
	Standard                                 bool
	GoFiles, TestGoFiles, XTestGoFiles, Deps []string
}

// censusDecl is one exported declaration in internal/.
type censusDecl struct {
	key  string // package name + name, "trace.Log.Close"
	path string // package path below the module, "internal/trace"
	pos  token.Position
	doc  string
	node ast.Node
	read bool
}

type census struct {
	fset     *token.FileSet
	module   string
	pkgs     []*censusPkg
	files    map[*censusPkg][]*ast.File // non-test files
	tests    map[*censusPkg][]*ast.File // _test.go files
	info     *types.Info
	typed    map[string]*types.Package
	decls    map[types.Object]*censusDecl
	testFunc map[string]*ast.File // test function name -> its file
}

var (
	censusOnce sync.Once
	censusData *census
	censusErr  error
)

func loadCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() { censusData, censusErr = buildCensus() })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusData
}

func buildCensus() (*census, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,Name,Standard,GoFiles,TestGoFiles,XTestGoFiles,Deps", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	c := &census{
		fset: token.NewFileSet(), module: "streamsched",
		files: map[*censusPkg][]*ast.File{}, tests: map[*censusPkg][]*ast.File{},
		typed: map[string]*types.Package{}, decls: map[types.Object]*censusDecl{},
		testFunc: map[string]*ast.File{},
		info:     &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(censusPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard && (p.ImportPath == c.module || strings.HasPrefix(p.ImportPath, c.module+"/")) {
			c.pkgs = append(c.pkgs, p) // dependencies come first
		}
	}
	std := importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := c.typed[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var fs []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		return fs, nil
	}
	for _, p := range c.pkgs {
		if c.files[p], err = parse(p.Dir, p.GoFiles); err != nil {
			return nil, err
		}
		if c.tests[p], err = parse(p.Dir, append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...)); err != nil {
			return nil, err
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, c.fset, c.files[p], c.info)
		if err != nil {
			return nil, err
		}
		c.typed[p.ImportPath] = tp
		for _, f := range c.tests[p] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					c.testFunc[fd.Name.Name] = f
				}
			}
		}
		if strings.HasPrefix(p.ImportPath, c.module+"/internal/") {
			c.collectDecls(p)
		}
	}
	c.markReads()
	return c, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (c *census) rel(p *censusPkg) string { return strings.TrimPrefix(p.ImportPath, c.module+"/") }

// collectDecls records every exported top-level name and every exported
// method declared in p's non-test files.
func (c *census) collectDecls(p *censusPkg) {
	add := func(id *ast.Ident, key string, doc *ast.CommentGroup, node ast.Node) {
		obj := c.info.Defs[id]
		if obj == nil || !id.IsExported() {
			return
		}
		c.decls[obj] = &censusDecl{key: p.Name + "." + key, path: c.rel(p), pos: c.fset.Position(id.Pos()), doc: doc.Text(), node: node}
	}
	for _, f := range c.files[p] {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					key = recvName(d.Recv.List[0].Type) + "." + key
				}
				add(d.Name, key, d.Doc, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						doc := s.Doc
						if doc == nil && len(d.Specs) == 1 {
							doc = d.Doc
						}
						add(s.Name, s.Name.Name, doc, s)
					case *ast.ValueSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						for _, n := range s.Names {
							add(n, n.Name, doc, s)
						}
					}
				}
			}
		}
	}
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// markReads marks every declaration used outside its own declaration in
// the module's non-test code, and every method whose name the module
// calls through an interface or the standard library calls through one
// of its own.
func (c *census) markReads() {
	viaInterface := map[string]bool{}
	for sel, s := range c.info.Selections {
		if types.IsInterface(s.Recv()) && s.Kind() != types.FieldVal {
			viaInterface[sel.Sel.Name] = true
		}
	}
	for id, obj := range c.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d := c.decls[obj]; d != nil && !d.read && (id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()) {
			d.read = true
		}
	}
	for obj, d := range c.decls {
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			if viaInterface[f.Name()] || stdMethods[f.Name()] {
				d.read = true
			}
		}
	}
}

// testName matches a test, fuzz target or example named in a doc comment.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Example)\w*`)

// oracle reports whether d's doc comment names a test that reads d: a
// name only tests read stays only as a named oracle.
func (c *census) oracle(d *censusDecl) bool {
	name := d.key[strings.LastIndex(d.key, ".")+1:]
	for _, tn := range testName.FindAllString(d.doc, -1) {
		f := c.testFunc[tn]
		if f == nil {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func (c *census) allowed(d *censusDecl, used map[string]bool) bool {
	for _, k := range []string{d.path, d.key} {
		if _, ok := censusAllow[k]; ok {
			used[k] = true
			return true
		}
	}
	return false
}

// TestCensusExportedNames fails on an exported name in internal/ that no
// non-test code reads, unless it is allowlisted or a named oracle.
func TestCensusExportedNames(t *testing.T) {
	c := loadCensus(t)
	if len(c.decls) < 100 {
		t.Fatalf("census found only %d exported declarations in internal/", len(c.decls))
	}
	used := map[string]bool{}
	var bad []string
	for _, d := range c.decls {
		if d.read || c.allowed(d, used) || c.oracle(d) {
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s has no reader outside tests (delete it, or name the test it is an oracle for in its doc comment)", d.pos, d.key))
	}
	for k := range censusAllow {
		if !used[k] {
			bad = append(bad, fmt.Sprintf("allowlist entry %q matches no unread name", k))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// netPackages are the module's packages that may link a network stack:
// the HTTP exposition, the daemon's core and command, and the experiment
// harness (its -listen).
var netPackages = map[string]bool{
	"internal/obs/obshttp": true,
	"internal/server":      true,
	"cmd/streamschedd":     true,
	"cmd/experiments":      true,
}

// TestCensusNetwork fails on a non-test package of the module, other
// than netPackages, that depends on net or a package below it: the
// engine, the library, the examples and the batch CLI model a cache and
// a schedule, and talk to no network.
func TestCensusNetwork(t *testing.T) {
	c := loadCensus(t)
	linked := map[string]bool{}
	for _, p := range c.pkgs {
		for _, d := range p.Deps {
			if d == "net" || strings.HasPrefix(d, "net/") {
				linked[c.rel(p)] = true
				if !netPackages[c.rel(p)] {
					t.Errorf("%s depends on %s; only %v may link a network stack", p.ImportPath, d, slices.Sorted(maps.Keys(netPackages)))
				}
				break
			}
		}
	}
	for p := range netPackages {
		if !linked[p] {
			t.Errorf("%s links no net package: drop it from netPackages", p)
		}
	}
}

// metricMethods are the obs.Registry methods that register a name.
var metricMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "StartSpan": true}

// TestCensusMetrics fails on a metric name that non-test code registers
// and nothing reads: no contract test, cmd/obsreport, /v1/stats, CI
// workflow, bench/ file or PERFORMANCE.md names it.
func TestCensusMetrics(t *testing.T) {
	c := loadCensus(t)
	type reg struct {
		pattern string
		pos     token.Position
		lit     *ast.BasicLit
	}
	var regs []reg
	regArgs := map[ast.Expr]bool{}
	for _, p := range c.pkgs {
		for _, f := range c.files[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !metricMethods[sel.Sel.Name] {
					return true
				}
				s := c.info.Selections[sel]
				if s == nil || !isObsRegistry(s.Recv()) {
					return true
				}
				regArgs[call.Args[0]] = true
				if pat := c.namePattern(call.Args[0]); strings.Trim(pat, "*") != "" {
					regs = append(regs, reg{pattern: pat, pos: c.fset.Position(call.Pos())})
				}
				return true
			})
		}
	}
	if len(regs) < 20 {
		t.Fatalf("census found only %d metric registrations", len(regs))
	}
	// Readers: string literals in the module's Go code that are not a
	// registration, and the text of the docs, workflows and bench/.
	var corpus strings.Builder
	for _, p := range c.pkgs {
		for _, fs := range [][]*ast.File{c.files[p], c.tests[p]} {
			for _, f := range fs {
				ast.Inspect(f, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok && regArgs[e] {
						return false
					}
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						corpus.WriteString(lit.Value)
						corpus.WriteByte('\n')
					}
					return true
				})
			}
		}
	}
	for _, glob := range []string{"PERFORMANCE.md", ".github/workflows/*", "bench/*", "bench/*/*"} {
		names, _ := filepath.Glob(glob)
		for _, n := range names {
			if b, err := os.ReadFile(n); err == nil {
				corpus.Write(b)
				corpus.WriteByte('\n')
			}
		}
	}
	text := corpus.String()
	for _, r := range regs {
		// A name built at run time is read where its constant prefix is.
		re := regexp.QuoteMeta(r.pattern) + `($|[^\w])`
		if i := strings.Index(r.pattern, "*"); i >= 0 {
			re = regexp.QuoteMeta(r.pattern[:i])
		}
		if !regexp.MustCompile(`(^|[^\w.])` + re).MatchString(text) {
			t.Errorf("%s: metric %q is registered but read by no test, tool, workflow, bench/ file or PERFORMANCE.md", r.pos, r.pattern)
		}
	}
}

func isObsRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Registry" && n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "/internal/obs")
}

// namePattern renders a registered name: constant parts verbatim, parts
// computed at run time as "*", fmt.Sprintf verbs included.
func (c *census) namePattern(e ast.Expr) string {
	if tv, ok := c.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return c.namePattern(e.X) + c.namePattern(e.Y)
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(e.Args) > 0 {
			if tv := c.info.Types[e.Args[0]]; tv.Value != nil {
				return regexp.MustCompile(`%[a-z]`).ReplaceAllString(constant.StringVal(tv.Value), "*")
			}
		}
	}
	return "*"
}

// flagDefiners are the flag package's functions and FlagSet methods
// that define a flag.
var flagDefiners = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc)(Var)?$|^(Var|TextVar)$`)

// TestCensusFlags fails on a streamsched or streamschedd flag that
// README's flag table leaves out or that no test passes, and on a verb's
// flag that its line of the command's usage text (errUsage) leaves out
// or that the verb does not define. The daemon's own flags belong to the
// verb-less "streamschedd" line.
func TestCensusFlags(t *testing.T) {
	c := loadCensus(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(cells[1], " `-") {
			for _, m := range regexp.MustCompile("`(-[A-Za-z0-9]+)`").FindAllStringSubmatch(cells[1], -1) {
				table[m[1]] = true
			}
		}
	}
	testArgs := map[string]bool{}
	for _, p := range c.pkgs {
		for _, f := range c.tests[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					for _, w := range strings.Fields(strings.Trim(lit.Value, "`\"")) {
						if strings.HasPrefix(w, "-") {
							testArgs[strings.SplitN(w, "=", 2)[0]] = true
						}
					}
				}
				return true
			})
		}
	}
	n := 0
	for _, p := range c.pkgs {
		bin := filepath.Base(p.ImportPath)
		if bin != "streamsched" && bin != "streamschedd" || p.ImportPath == c.module {
			continue
		}
		// A verb's flags are those its function defines on the FlagSet
		// it names, plus those of the helpers it passes that set to.
		verbOf := map[string]string{}                // function -> the verb its NewFlagSet names
		callers := map[string]map[string]bool{}      // helper -> functions that call it
		defined := map[string]map[string]token.Pos{} // function -> flag -> definition
		var usage string
		for _, f := range c.files[p] {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "errUsage" {
							if call, ok := vs.Values[0].(*ast.CallExpr); ok && len(call.Args) == 1 {
								if tv := c.info.Types[call.Args[0]]; tv.Value != nil {
									usage = constant.StringVal(tv.Value)
								}
							}
						}
					}
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fname := fd.Name.Name
				ast.Inspect(fd.Body, func(nd ast.Node) bool {
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok {
						if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == p.ImportPath {
							if callers[id.Name] == nil {
								callers[id.Name] = map[string]bool{}
							}
							callers[id.Name][fname] = true
						}
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					fn, ok := c.info.Uses[sel.Sel].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
						return true
					}
					if fn.Name() == "NewFlagSet" && len(call.Args) > 0 {
						if tv := c.info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
							verbOf[fname] = constant.StringVal(tv.Value)
						}
						return true
					}
					if !flagDefiners.MatchString(fn.Name()) {
						return true
					}
					arg := 0
					if strings.HasSuffix(fn.Name(), "Var") {
						arg = 1
					}
					if len(call.Args) <= arg {
						return true
					}
					tv := c.info.Types[call.Args[arg]]
					if tv.Value == nil || tv.Value.Kind() != constant.String {
						return true
					}
					n++
					flag := "-" + constant.StringVal(tv.Value)
					pos := c.fset.Position(call.Pos())
					if !table[flag] {
						t.Errorf("%s: %s flag %s is missing from README's flag table", pos, bin, flag)
					}
					if !testArgs[flag] {
						t.Errorf("%s: no test passes %s's flag %s", pos, bin, flag)
					}
					if defined[fname] == nil {
						defined[fname] = map[string]token.Pos{}
					}
					defined[fname][flag] = call.Pos()
					return true
				})
			}
		}
		if usage == "" {
			t.Fatalf("%s: no errUsage text found", p.ImportPath)
		}
		listed := usageFlags(usage, bin)
		// A function's flags land on its own verb's flag set or, for a
		// helper, on those of the verbs that call it.
		verbs := func(fname string) []string {
			if v, ok := verbOf[fname]; ok {
				return []string{v}
			}
			var vs []string
			for caller := range callers[fname] {
				if v, ok := verbOf[caller]; ok {
					vs = append(vs, v)
				}
			}
			return vs
		}
		registered := map[string]map[string]bool{}
		for fname, flags := range defined {
			vs := verbs(fname)
			if len(vs) == 0 {
				t.Errorf("%s: %s defines flags on no verb's flag set", p.ImportPath, fname)
			}
			for _, verb := range vs {
				if registered[verb] == nil {
					registered[verb] = map[string]bool{}
				}
				for flag, pos := range flags {
					registered[verb][flag] = true
					if !listed[verb][flag] {
						t.Errorf("%s: %s %s's flag %s is missing from its usage line (errUsage)", c.fset.Position(pos), bin, verb, flag)
					}
				}
			}
		}
		for verb, flags := range listed {
			for flag := range flags {
				if !registered[verb][flag] {
					t.Errorf("%s: the usage line of %s %s names %s, which the verb does not define", p.ImportPath, bin, verb, flag)
				}
			}
		}
		if want := map[string]int{"streamsched": 9, "streamschedd": 2}[bin]; len(registered) < want {
			t.Errorf("census mapped flags to only %d %s verbs, want %d", len(registered), bin, want)
		}
	}
	if n < 30 {
		t.Fatalf("census found only %d flag definitions", n)
	}
}

// usageFlags reads the flags each verb's line of bin's usage text names:
// "  <bin> <verb> …" lines, a verb-less "  <bin> [-flag …]" line (the
// verb bin itself), and the shared lines of the form "<what> (<verb>,
// <verb>, …): …" that apply to the verbs they list.
func usageFlags(usage, bin string) map[string]map[string]bool {
	flagRe := regexp.MustCompile(`(?:^|[\s\[])(-[A-Za-z0-9]+)`)
	verbRe := regexp.MustCompile(`^  ` + regexp.QuoteMeta(bin) + `(?: ([a-z]\w*))?(\s.*)?$`)
	sharedRe := regexp.MustCompile(`^[a-z ]+ \(([a-z, ]+)\):(.*)$`)
	listed := map[string]map[string]bool{}
	add := func(verb, rest string) {
		if listed[verb] == nil {
			listed[verb] = map[string]bool{}
		}
		for _, m := range flagRe.FindAllStringSubmatch(rest, -1) {
			listed[verb][m[1]] = true
		}
	}
	for _, line := range strings.Split(usage, "\n") {
		if m := verbRe.FindStringSubmatch(line); m != nil {
			if m[1] == "" {
				m[1] = bin
			}
			add(m[1], m[2])
		} else if m := sharedRe.FindStringSubmatch(line); m != nil {
			for _, verb := range strings.Split(m[1], ",") {
				add(strings.TrimSpace(verb), m[2])
			}
		}
	}
	return listed
}
