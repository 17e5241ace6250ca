package analysis

import (
	"fmt"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one directory of parsed Go files.
type Package struct {
	// ImportPath is module path + "/" + repo-relative dir.
	ImportPath string
	// Dir is relative to the repo root ("." for the root package).
	Dir   string
	Files []*File
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// Load parses every package under root matched by patterns. Patterns
// follow the go tool's shape: "./..." (everything), "./dir/..."
// (subtree), "./dir" (one package). testdata, vendor, hidden, and
// _-prefixed directories are skipped, matching the go tool.
func Load(fset *token.FileSet, root string, patterns []string) ([]*Package, error) {
	module, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !matchAny(patterns, rel) {
			return nil
		}
		pkg, err := loadDir(fset, root, rel, module)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func loadDir(fset *token.FileSet, root, rel, module string) (*Package, error) {
	dir := filepath.Join(root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Only the files the go tool builds here: a build-constrained
		// pair of files declares the same names once per platform.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err == nil && !ok {
			continue
		}
		path := rel + "/" + e.Name()
		if rel == "." {
			path = e.Name()
		}
		f, err := parser.ParseFile(fset, path, readFile(filepath.Join(dir, e.Name())), parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		files = append(files, &File{
			Path:   path,
			AST:    f,
			IsTest: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(files) == 0 {
		return nil, nil
	}
	importPath := module
	if rel != "." {
		importPath = module + "/" + rel
	}
	return &Package{ImportPath: importPath, Dir: rel, Files: files}, nil
}

// readFile returns the file contents or nil (ParseFile then reads the
// path itself and surfaces the I/O error with position info).
func readFile(path string) any {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

func matchAny(patterns []string, rel string) bool {
	for _, p := range patterns {
		if matchPattern(p, rel) {
			return true
		}
	}
	return false
}

// matchPattern matches one go-tool-style pattern against a repo-
// relative directory.
func matchPattern(pattern, rel string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	if pattern == "" {
		pattern = "."
	}
	if pattern == "..." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == pattern
}
