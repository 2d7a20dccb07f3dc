package lint

import (
	"encoding/json"
	"sort"
)

// The facts protocol: when bhsslint runs as a `go vet -vettool`, each
// package is analyzed in isolation, so cross-package analyzers cannot see
// dependency bodies. Instead every bhss package run exports a summary of
// its functions — hot-path directive, direct-allocation sites, static call
// edges — into its .vetx output file, and dependent packages import those
// summaries through cmd/go's PackageVetx map. hotpathfacts then walks
// chains across package boundaries symbolically: a callee that is not in
// the local graph is looked up by its FullName in the imported facts.
//
// Standalone mode does not need any of this (the whole program is loaded at
// once), but uses the same FuncFacts shape internally so the propagation
// logic is written once.

// FuncFacts is the serialized per-function summary.
type FuncFacts struct {
	// Sym is the function's stable symbol: types.Func.FullName, e.g.
	// "bhss/internal/core.(*Receiver).DecodeBurst".
	Sym string `json:"sym"`
	// Hotpath records the //bhss:hotpath directive.
	Hotpath bool `json:"hotpath,omitempty"`
	// Allocs holds one human-readable entry per direct-allocation site,
	// "what at file.go:line".
	Allocs []string `json:"allocs,omitempty"`
	// Calls holds the symbols of statically-resolved callees.
	Calls []string `json:"calls,omitempty"`
}

// factsFile is the .vetx payload.
type factsFile struct {
	Version int         `json:"version"`
	Funcs   []FuncFacts `json:"funcs"`
}

const factsVersion = 1

// ExportFacts serializes the graph's per-function summaries for the .vetx
// file of the package(s) it covers.
func ExportFacts(g *CallGraph) ([]byte, error) {
	ff := factsFile{Version: factsVersion}
	for obj, fi := range g.Funcs {
		if fi.Test {
			continue // test functions are not part of any dependent's API
		}
		f := FuncFacts{Sym: obj.FullName(), Hotpath: fi.Hotpath}
		for _, a := range fi.Allocs {
			// shortPos, not the full position: these strings end up inside
			// dependents' diagnostic messages, which the baseline matches on.
			f.Allocs = append(f.Allocs, a.What+" at "+shortPos(g.Fset, a.Pos))
		}
		for _, c := range fi.Calls {
			f.Calls = append(f.Calls, c.Callee.FullName())
		}
		ff.Funcs = append(ff.Funcs, f)
	}
	sort.Slice(ff.Funcs, func(i, j int) bool { return ff.Funcs[i].Sym < ff.Funcs[j].Sym })
	return json.Marshal(ff)
}

// DecodeFacts parses one dependency's .vetx payload into dst. Unknown or
// empty payloads (including the zero-byte files written for non-bhss
// packages) decode to nothing, not an error: facts are an acceleration, and
// a missing summary just makes the callee opaque.
func DecodeFacts(data []byte, dst map[string]FuncFacts) {
	if len(data) == 0 {
		return
	}
	var ff factsFile
	if err := json.Unmarshal(data, &ff); err != nil || ff.Version != factsVersion {
		return
	}
	for _, f := range ff.Funcs {
		dst[f.Sym] = f
	}
}
