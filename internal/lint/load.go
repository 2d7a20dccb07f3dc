package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	// TestFiles holds the _test.go files (in-package and external) parsed
	// with parser.ImportsOnly: they are neither type-checked nor walked,
	// and only detrand's import ban reads them.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader reads.
type listPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	ImportMap    map[string]string
	Standard     bool
	DepOnly      bool
	Error        *listError
}

type listError struct {
	Err string
}

// Load enumerates the packages matching patterns with `go list` and
// type-checks them — together with their entire dependency graph — from
// source. Only the root packages (the ones the patterns name) are returned,
// with full syntax trees and type information for their non-test files and
// the import declarations of their _test.go files; dependencies are checked
// just deeply enough to supply their exported API.
//
// The loader forces CGO_ENABLED=0 so every dependency, including the
// standard library, resolves to a pure-Go file set that go/types can check
// without a C toolchain. Nothing outside the standard library is required:
// this is a from-scratch reimplementation of the part of go/packages the
// analyzers need, because the build environment vendors no external modules.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps",
		"-json=Dir,ImportPath,Name,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Imports,ImportMap,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	var roots []*Package

	// `go list -deps` emits dependencies before dependents, so a single
	// forward pass sees every import already checked.
	for _, lp := range pkgs {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Error != nil {
			if lp.DepOnly {
				continue // tolerated unless a root actually imports it
			}
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the source loader cannot check", lp.ImportPath)
		}
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles, 0)
		if err != nil {
			return nil, err
		}
		var info *types.Info
		if !lp.DepOnly {
			info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Implicits:  map[ast.Node]types.Object{},
				Instances:  map[*ast.Ident]types.Instance{},
			}
		}
		conf := types.Config{
			Importer: mapImporter{resolved: checked, importMap: lp.ImportMap},
			Sizes:    sizes,
			Error:    func(error) {}, // collect everything, report the first below
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			if lp.DepOnly {
				// A dependency that fails to check only matters if a root
				// imports it, at which point the root's own check fails
				// with a clear message.
				continue
			}
			return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg
		if lp.DepOnly {
			continue
		}
		testFiles, err := parseFiles(fset, lp.Dir, append(lp.TestGoFiles, lp.XTestGoFiles...), parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		roots = append(roots, &Package{
			ImportPath: lp.ImportPath,
			Fset:       fset,
			Files:      files,
			TestFiles:  testFiles,
			Types:      tpkg,
			Info:       info,
		})
	}
	return roots, nil
}

// parseFiles parses the named files in dir, keeping comments (directives and
// fixture expectations live there) on top of the extra parser mode.
func parseFiles(fset *token.FileSet, dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, mode|parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// mapImporter resolves imports against the already-checked package set,
// applying the package's ImportMap (vendoring / module rewrites) first.
type mapImporter struct {
	resolved  map[string]*types.Package
	importMap map[string]string
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if pkg, ok := m.resolved[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("package %q not in dependency graph", path)
}
