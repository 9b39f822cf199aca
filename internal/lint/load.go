package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Module is a Go module with every package parsed and type-checked,
// ready for analysis. Built by LoadModule.
type Module struct {
	// Path is the module path from go.mod (here: "repro").
	Path string
	// Dir is the module root directory.
	Dir string
	// Fset positions every parsed file, including stdlib sources pulled
	// in by the source importer.
	Fset *token.FileSet
	// Pkgs lists the module's packages in dependency order.
	Pkgs []*Package

	byPath map[string]*types.Package
	std    types.Importer
}

// Package is one parsed, type-checked package of the module.
type Package struct {
	// Path is the import path ("repro", "repro/internal/core", ...).
	Path string
	// Dir is the package directory.
	Dir string
	// Name is the package name from the source.
	Name string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
}

// LoadModule parses and type-checks every package under the module
// rooted at dir, using only the standard library: stdlib dependencies
// are type-checked from source (the "source" importer), module-internal
// imports resolve against the packages being loaded. Test files and
// testdata directories are skipped.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:   modPath,
		Dir:    abs,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*types.Package),
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil)

	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := m.parseDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sorted, err := topoSort(pkgs)
	if err != nil {
		return nil, err
	}
	for _, pkg := range sorted {
		if err := m.typeCheck(pkg); err != nil {
			return nil, err
		}
		m.byPath[pkg.Path] = pkg.Types
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// CheckDir parses and type-checks the package in dir under the given
// import path without registering it in the module. The fixture tests
// use it to compile testdata packages against the real module (so
// fixtures can import repro/internal/trace and friends) while choosing
// the import path the analyzers see.
func (m *Module) CheckDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg, err := m.parseDir(abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg.Path = importPath
	if err := m.typeCheck(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs returns every directory under root that may hold a
// package: testdata, hidden and underscore-prefixed directories are
// pruned, mirroring the go tool's matching rules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses the non-test Go files of one directory. It returns
// nil when the directory holds no buildable Go files.
func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	pkg := &Package{Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !matchesHostConstraints(name, filepath.Join(dir, name)) {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("lint: %s: package %s conflicts with %s in the same directory",
				filepath.Join(dir, name), f.Name.Name, pkg.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	if rel == "." {
		pkg.Path = m.Path
	} else {
		pkg.Path = m.Path + "/" + filepath.ToSlash(rel)
	}
	return pkg, nil
}

// unixGOOS mirrors the go tool's "unix" build tag: the GOOS values it
// stands for.
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// matchesHostConstraints reports whether a file builds on the host
// platform, honoring both //go:build lines and _GOOS/_GOARCH filename
// suffixes the way the go tool does. Files excluded on this platform
// (e.g. the non-unix mmap fallback) would redeclare symbols if parsed
// alongside their counterparts, so the loader must skip them exactly
// like the compiler does.
func matchesHostConstraints(name, path string) bool {
	base := strings.TrimSuffix(name, ".go")
	if i := strings.LastIndex(base, "_"); i >= 0 {
		// Only the go tool's known GOOS/GOARCH names act as implicit
		// filename constraints; check the final one or two suffixes.
		parts := strings.Split(base, "_")
		last := parts[len(parts)-1]
		if knownArch[last] {
			if last != runtime.GOARCH {
				return false
			}
			if len(parts) >= 3 && knownOS[parts[len(parts)-2]] && parts[len(parts)-2] != runtime.GOOS {
				return false
			}
		} else if knownOS[last] && last != runtime.GOOS {
			return false
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return true // let the parser report the real error
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if constraint.IsGoBuild(trimmed) {
			expr, err := constraint.Parse(trimmed)
			if err != nil {
				return true
			}
			return expr.Eval(hostTag)
		}
		// Build constraints must precede the package clause.
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
	}
	return true
}

// hostTag evaluates one build tag for the host platform.
func hostTag(tag string) bool {
	switch {
	case tag == runtime.GOOS || tag == runtime.GOARCH:
		return true
	case tag == "unix":
		return unixGOOS[runtime.GOOS]
	case strings.HasPrefix(tag, "go1."):
		return true // the module's minimum Go always satisfies these
	}
	return false
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"js": true, "linux": true, "nacl": true, "netbsd": true,
	"openbsd": true, "plan9": true, "solaris": true, "wasip1": true,
	"windows": true, "zos": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

// moduleImports lists the module-internal import paths of pkg.
func moduleImports(pkg *Package, modPath string) []string {
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				out = append(out, path)
			}
		}
	}
	return out
}

// topoSort orders packages so that every module-internal dependency
// precedes its importers.
func topoSort(pkgs []*Package) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(pkgs))
	var out []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p.Path] = visiting
		var modPath string
		if i := strings.Index(p.Path, "/"); i >= 0 {
			modPath = p.Path[:i]
		} else {
			modPath = p.Path
		}
		deps := moduleImports(p, modPath)
		sort.Strings(deps)
		for _, dep := range deps {
			if d, ok := byPath[dep]; ok && d != p {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.Path] = done
		out = append(out, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// typeCheck runs the type checker over pkg, resolving module-internal
// imports from already-checked packages and everything else through the
// stdlib source importer.
func (m *Module) typeCheck(pkg *Package) error {
	var errs []error
	conf := types.Config{
		Importer: moduleImporter{m},
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if len(errs) > 0 {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, errs[0])
	}
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// moduleImporter resolves imports during module type-checking: module
// packages come from the in-progress load (dependency order guarantees
// they are already checked), the rest from the stdlib source importer.
type moduleImporter struct{ m *Module }

func (mi moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := mi.m.byPath[path]; ok {
		return p, nil
	}
	return mi.m.std.Import(path)
}
