package rangereach_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// docFiles are the documents whose backticked references must name
// code that exists.
var docFiles = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// metricPackages are the serving packages whose /metrics families must
// each be a row of README's metric table.
var metricPackages = []string{"internal/server", "internal/router", "internal/httpjson"}

// TestDocsResolve resolves every backticked reference in docFiles
// against the tree: package-qualified names, Type.Member, paths and Go
// file names, command-line flags, rrbench experiments, metric families
// and benchmark or work-count rows. A span that has none of these shapes
// (a formula, a JSON field, a stdlib name) is prose and is not checked.
// It then checks README's one metric table against the families the
// serving packages name: every family is a row, and every row names a
// family. When a name does not resolve, the document is what changes.
func TestDocsResolve(t *testing.T) {
	mod := indexModule(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range docSpans(string(data)) {
			if why := mod.resolve(s.text, s.fenced); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, s.line, s.text, why)
			}
		}
	}

	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := metricTable(string(data))
	if len(rows) == 0 {
		t.Fatal("README.md has no table whose first column is `family`")
	}
	documented := map[string]bool{}
	for _, row := range rows {
		for _, m := range backtickRE.FindAllStringSubmatch(row, -1) {
			if name := familyName(m[1]); name != "" {
				documented[name] = true
				if !mod.servingFamilies[name] {
					t.Errorf("README metric table: `%s` is not a family of %v", m[1], metricPackages)
				}
			}
		}
	}
	for name := range mod.servingFamilies {
		if !documented[name] {
			t.Errorf("family %s is named in %v but has no row in README's metric table", name, metricPackages)
		}
	}
}

type span struct {
	text   string
	line   int
	fenced bool // a command line of a fenced code block
}

var backtickRE = regexp.MustCompile("`([^`]+)`")

// docSpans returns the inline code spans of a Markdown document, joined
// across line breaks within a paragraph, and the `go run ./cmd/...`
// command lines of its fenced blocks, continuations joined.
func docSpans(doc string) []span {
	var out []span
	lines := strings.Split(doc, "\n")
	para, paraLine := []string{}, 0
	flush := func() {
		text := strings.Join(para, "\n")
		for _, m := range backtickRE.FindAllStringSubmatchIndex(text, -1) {
			line := paraLine + strings.Count(text[:m[0]], "\n")
			s := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			out = append(out, span{text: s, line: line})
		}
		para = para[:0]
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			flush()
			for i++; i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```"); i++ {
				cmd, start := lines[i], i
				for strings.HasSuffix(cmd, "\\") && i+1 < len(lines) {
					i++
					cmd = strings.TrimSuffix(cmd, "\\") + " " + lines[i]
				}
				if strings.Contains(cmd, "./cmd/rr") {
					out = append(out, span{text: strings.Join(strings.Fields(cmd), " "), line: start + 1, fenced: true})
				}
			}
			continue
		}
		if strings.TrimSpace(l) == "" {
			flush()
			continue
		}
		if len(para) == 0 {
			paraLine = i + 1
		}
		para = append(para, l)
	}
	flush()
	return out
}

// metricTable returns the body rows of README's table whose first
// header cell is "family".
func metricTable(doc string) []string {
	var rows []string
	in := false
	for _, l := range strings.Split(doc, "\n") {
		cells := strings.Split(strings.TrimSpace(l), "|")
		switch {
		case len(cells) < 3:
			in = false
		case strings.TrimSpace(cells[1]) == "family":
			in = true
		case in && !strings.HasPrefix(strings.TrimSpace(cells[1]), "---"):
			rows = append(rows, cells[1])
		}
	}
	return rows
}

// typeInfo is what a type declaration makes resolvable: its fields and
// methods, and the types it embeds.
type typeInfo struct {
	members  map[string]bool
	embedded []string
}

type pkgInfo struct {
	decls map[string]bool        // top-level names, all files
	types map[string][]*typeInfo // by type name
}

type moduleIndex struct {
	pkgs            map[string]*pkgInfo    // by package name
	types           map[string][]*typeInfo // every type, by name
	funcs           map[string]bool        // top-level funcs and methods
	tests           map[string]bool        // Test, Fuzz and Benchmark funcs
	basenames       map[string]bool        // every file name in the tree
	flags           map[string]map[string]bool
	literals        []string // non-test string literals
	servingFamilies map[string]bool
	experiments     map[string]bool
	rows            map[string]bool      // BENCHMARK.json per_layer and counts.golden names
	byDir           map[string]*typeInfo // by "dir.Type"
}

func indexModule(t *testing.T) *moduleIndex {
	t.Helper()
	mod := &moduleIndex{
		pkgs: map[string]*pkgInfo{}, types: map[string][]*typeInfo{},
		funcs: map[string]bool{}, tests: map[string]bool{}, basenames: map[string]bool{},
		flags: map[string]map[string]bool{}, servingFamilies: map[string]bool{},
		experiments: map[string]bool{}, rows: map[string]bool{}, byDir: map[string]*typeInfo{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		mod.basenames[d.Name()] = true
		if !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") || strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mod.addFile(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bench.ExperimentNames() {
		mod.experiments[name] = true
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.PerLayer {
		mod.rows[m.Name] = true
	}
	var golden map[string]json.RawMessage
	data, err = os.ReadFile("testdata/counts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for name := range golden {
		mod.rows[name] = true
	}
	return mod
}

func (mod *moduleIndex) addFile(path string, f *ast.File) {
	test := strings.HasSuffix(path, "_test.go")
	dir := filepath.ToSlash(filepath.Dir(path))
	name := strings.TrimSuffix(f.Name.Name, "_test")
	var cmd string
	if name == "main" {
		if strings.HasPrefix(dir, "cmd/") {
			cmd = strings.TrimPrefix(dir, "cmd/")
		}
	} else if mod.pkgs[name] == nil {
		mod.pkgs[name] = &pkgInfo{decls: map[string]bool{}, types: map[string][]*typeInfo{}}
	}
	pkg := mod.pkgs[name]
	serving := !test && slices.Contains(metricPackages, dir)
	// typeOf returns the one typeInfo of this directory's type tname,
	// which its declaration and its methods, in any file, fill in.
	typeOf := func(tname string) *typeInfo {
		ti := mod.byDir[dir+"."+tname]
		if ti == nil {
			ti = &typeInfo{members: map[string]bool{}}
			mod.byDir[dir+"."+tname] = ti
			mod.types[tname] = append(mod.types[tname], ti)
			if pkg != nil {
				pkg.decls[tname] = true
				pkg.types[tname] = append(pkg.types[tname], ti)
			}
		}
		return ti
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			mod.funcs[d.Name.Name] = true
			if test && testNameRE.MatchString(d.Name.Name) {
				mod.tests[d.Name.Name] = true
			}
			if d.Recv != nil {
				typeOf(typeName(d.Recv.List[0].Type)).members[d.Name.Name] = true
			} else if pkg != nil {
				pkg.decls[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ti := typeOf(s.Name.Name)
					switch tt := s.Type.(type) {
					case *ast.StructType:
						for _, fl := range tt.Fields.List {
							for _, n := range fl.Names {
								ti.members[n.Name] = true
							}
							if len(fl.Names) == 0 {
								ti.embedded = append(ti.embedded, typeName(fl.Type))
							}
						}
					case *ast.InterfaceType:
						for _, fl := range tt.Methods.List {
							for _, n := range fl.Names {
								ti.members[n.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if pkg != nil {
							pkg.decls[n.Name] = true
						}
					}
				}
			}
		}
	}
	if test {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				if s, err := strconv.Unquote(n.Value); err == nil {
					mod.literals = append(mod.literals, s)
					if serving {
						if name := familyName(s); name != "" {
							mod.servingFamilies[name] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			// A flag's name is the first string literal of its flag.*
			// call, whether the call defines it or a *Var form binds it.
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if cmd == "" || !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if mod.flags[cmd] == nil {
						mod.flags[cmd] = map[string]bool{}
					}
					name, _ := strconv.Unquote(lit.Value)
					mod.flags[cmd][name] = true
					break
				}
			}
		}
		return true
	})
}

// typeName returns the name of a (pointer to, generic instance of) named
// type expression.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

var familyRE = regexp.MustCompile(`^(rr|go)_[a-z0-9_]*[a-z0-9]`)

// familyName returns the metric family a span or literal names, labels
// cut off, or "" when it names none.
func familyName(s string) string {
	return familyRE.FindString(s)
}

var (
	identSegRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\[[A-Za-z]\])?(\(.*\))?$`)
	identRE    = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*`)
	rowNameRE  = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*(\.[a-z0-9][a-z0-9_-]*)+$`)
	fileRE     = regexp.MustCompile(`^[\w.-]+\.(go|idx|sh|md|json|yml)$`)
	testNameRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]\w*$`)
	cmdRE      = regexp.MustCompile(`^rr[a-z]+$`)
)

var pathPrefixes = []string{"internal/", "cmd/", "examples/", "testdata/", "benchmark/", ".github/"}

// resolve returns why s names nothing in the tree, or "" when it
// resolves or is not a reference.
func (mod *moduleIndex) resolve(s string, fenced bool) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	for _, f := range fields {
		if name := strings.Trim(f, `'"^$()`); testNameRE.MatchString(name) && !mod.tests[name] {
			return "no test function " + name
		}
	}
	if fenced {
		for i, f := range fields {
			if cmd, ok := strings.CutPrefix(strings.TrimSuffix(f, "/"), "./cmd/"); ok {
				return mod.resolveFlags(cmd, fields[i+1:])
			}
		}
		return ""
	}
	head := fields[0]
	if head == "go" && len(fields) > 2 && fields[1] == "run" {
		fields = fields[2:]
		head = fields[0]
	}
	head = strings.TrimPrefix(head, "./")
	switch {
	case cmdRE.MatchString(head):
		return mod.resolveFlags(head, fields[1:])
	case strings.HasPrefix(head, "cmd/rr") && !strings.Contains(strings.TrimPrefix(head, "cmd/"), "/") && len(fields) > 1:
		return mod.resolveFlags(strings.TrimPrefix(head, "cmd/"), fields[1:])
	case len(fields) > 1:
		return ""
	case slices.ContainsFunc(pathPrefixes, func(p string) bool { return strings.HasPrefix(head, p) }):
		return mod.resolvePath(head)
	case strings.HasPrefix(head, "rr_") || strings.HasPrefix(head, "go_"):
		return mod.resolveFamily(head)
	case fileRE.MatchString(head):
		if !mod.basenames[head] {
			return "no file of that name in the tree"
		}
		return ""
	case rowNameRE.MatchString(head) && strings.ContainsAny(head, "_-0123456789"):
		if !mod.rows[head] {
			return "not a per_layer name in BENCHMARK.json nor a row of testdata/counts.golden"
		}
		return ""
	}
	return mod.resolveName(strings.TrimPrefix(head, "*"))
}

// resolveFlags checks each -flag token after a command against the
// literal flag names of cmd/<cmd>, and rrbench's -exp values against
// its experiments.
func (mod *moduleIndex) resolveFlags(cmd string, args []string) string {
	flags, ok := mod.flags[cmd]
	if _, err := os.Stat(filepath.Join("cmd", cmd)); err != nil {
		return "no command cmd/" + cmd
	}
	for i, a := range args {
		if a == "|" || a == "&" || a == "&&" || a == ";" || a == "#" || strings.HasPrefix(a, ">") {
			break
		}
		if !strings.HasPrefix(a, "-") || a == "-" {
			continue
		}
		for _, f := range strings.Split(a, "/") {
			name, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
			if name == "" || name == "h" {
				continue
			}
			if !ok || !flags[name] {
				return fmt.Sprintf("%s has no flag -%s", cmd, name)
			}
			if cmd == "rrbench" && name == "exp" && i+1 < len(args) && !mod.experiments[args[i+1]] {
				return "rrbench has no experiment " + args[i+1]
			}
		}
	}
	return ""
}

// resolvePath checks a tree path; braces expand, globs must match, a
// trailing "…" or placeholder stops the check at the directory before
// it, and a trailing .Name is a name in the package at that path.
func (mod *moduleIndex) resolvePath(p string) string {
	if i := strings.IndexAny(p, "…<"); i >= 0 {
		p = p[:i]
	}
	var paths []string
	if open := strings.Index(p, "{"); open >= 0 {
		end := strings.Index(p, "}")
		for _, alt := range strings.Split(p[open+1:end], ",") {
			paths = append(paths, p[:open]+alt+p[end+1:])
		}
	} else {
		paths = []string{p}
	}
	for _, p := range paths {
		if matches, _ := filepath.Glob(strings.TrimSuffix(p, "/")); len(matches) > 0 {
			continue
		}
		dot := strings.LastIndex(p, ".")
		if dot > strings.LastIndex(p, "/") {
			if st, err := os.Stat(p[:dot]); err == nil && st.IsDir() {
				if why := mod.resolveName(filepath.Base(p[:dot]) + p[dot:]); why != "" {
					return why
				}
				continue
			}
		}
		return "no such path " + p
	}
	return ""
}

// resolveFamily checks a metric family, or a family prefix ending in
// "*", against the string literals of non-test source.
func (mod *moduleIndex) resolveFamily(s string) string {
	name, wild := strings.CutSuffix(s, "*")
	if !wild {
		name = familyName(s)
	}
	for _, lit := range mod.literals {
		if wild && strings.HasPrefix(lit, name) || !wild && (lit == name || strings.HasPrefix(lit, name+"{")) {
			return ""
		}
	}
	return "no family " + name + " in non-test source"
}

// resolveName checks a dotted Go name: pkg.Name, Type.Member or a
// function's result member (Stats().Phases), with calls and type
// parameters stripped. A first segment that is no package, type or
// function of the module is not a reference (a local, a stdlib name).
func (mod *moduleIndex) resolveName(s string) string {
	segs := strings.Split(s, ".")
	if len(segs) < 2 {
		return ""
	}
	for i, seg := range segs {
		if !identSegRE.MatchString(seg) {
			return ""
		}
		segs[i] = identRE.FindString(seg)
	}
	var cur []*typeInfo // the types rest[0] must be a member of; nil: any type
	rest := segs[1:]
	switch pkg := mod.pkgs[segs[0]]; {
	case pkg != nil:
		name := segs[1]
		if !pkg.decls[name] && !anyMember(pkg.types, name) {
			return fmt.Sprintf("package %s declares no %s", segs[0], name)
		}
		cur, rest = pkg.types[name], segs[2:]
	case mod.types[segs[0]] != nil:
		cur = mod.types[segs[0]]
	case !mod.funcs[segs[0]]:
		return ""
	}
	for i, name := range rest {
		if i == 0 && cur != nil {
			if !mod.membersOf(cur, name, 0) {
				return fmt.Sprintf("type %s has no member %s", segs[len(segs)-len(rest)-1], name)
			}
		} else if !anyMember(mod.types, name) {
			return "no type in the module has a member " + name
		}
	}
	return ""
}

func anyMember(types map[string][]*typeInfo, name string) bool {
	for _, tis := range types {
		for _, ti := range tis {
			if ti.members[name] {
				return true
			}
		}
	}
	return false
}

// membersOf reports whether one of tis has name as a field or method,
// its own or promoted from an embedded type.
func (mod *moduleIndex) membersOf(tis []*typeInfo, name string, depth int) bool {
	for _, ti := range tis {
		if ti.members[name] {
			return true
		}
		for _, e := range ti.embedded {
			if depth < 4 && mod.membersOf(mod.types[e], name, depth+1) {
				return true
			}
		}
	}
	return false
}

// TestDocsResolverBites keeps the docs gate from going blind: for each
// shape it resolves, a name that exists passes and one that does not
// fails.
func TestDocsResolverBites(t *testing.T) {
	mod := indexModule(t)
	for _, c := range []struct {
		span string
		ok   bool
	}{
		{"core.ErrRetiredFormat", true}, {"core.ErrNoSuchThing", false},
		{"rtree.Flat.Validate", true}, {"rtree.Flat.Rebalance", false},
		{"Index.Stats().Phases", true}, {"Server.Metrics()", false},
		{"internal/{labeling,georeach}/flat.go", true}, {"internal/{labeling,bfl}/flat.go", false},
		{"internal/metrics.ParseProm", true}, {"internal/lint/cfg", false},
		{"health.go", true}, {"federate_loop.go", false},
		{"rrserve -check -mmap", true}, {"rrrouter -max-batch 9000", false},
		{"rrbench -exp fig7", true}, {"rrbench -exp fig8", false},
		{"rr_incr_*", true}, {"rr_cluster_*", false},
		{"rr_requests_total{endpoint}", true}, {"rr_updates_total", false},
		{"flatbuf.load_ms", true}, {"flatbuf.unload_ms", false},
		{"TestDocsResolve", true}, {"TestShardSpans", false},
	} {
		if why := mod.resolve(c.span, false); (why == "") != c.ok {
			t.Errorf("resolve(`%s`) = %q, want resolved %v", c.span, why, c.ok)
		}
	}
}
