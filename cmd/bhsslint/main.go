// Command bhsslint runs the BHSS static-analysis suite (internal/lint) over
// the named packages (default ./...): seven analyzers enforcing the
// zero-alloc hot-path contract (an annotated body and every unannotated
// callee it reaches, across packages), deterministic simulation (no
// math/rand, no wall-clock reads, no order-sensitive map-range sums),
// epsilon-safe float comparisons, scratch-buffer lifetimes, the
// construction-time-only panic policy, goroutine shutdown edges, and channel
// close/send/lock discipline.
//
//	go run ./cmd/bhsslint ./...
//	go run ./cmd/bhsslint ./internal/dsp/...
//
// It takes no flags and always runs the whole suite. The one way to accept
// an intentional finding is in place, with a
// `//bhss:allow(analyzer) reason` directive on the flagged line or the line
// above it.
//
// Exit status: 0 when clean, 1 on findings or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bhss/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bhsslint [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the BHSS analyzer suite over the named packages (default ./...).\n")
	}
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdout, os.Stderr))
}

// run lints the packages matching patterns, resolved against the working
// directory, prints one line per finding to stdout and returns the exit
// status.
func run(patterns []string, stdout, stderr io.Writer) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bhsslint:", err)
		return 1
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "bhsslint:", err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(stderr, "bhsslint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "bhsslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
