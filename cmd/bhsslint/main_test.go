package main

import (
	"bytes"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata/src/"

// TestRunExitStatus drives the command over the detrand fixtures: the
// flagged package prints its findings and exits 1, the clean one exits 0
// with no output, and a pattern that matches nothing loadable exits 1.
func TestRunExitStatus(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{fixtures + "detrand/flagged"}, &out, &errOut); code != 1 {
		t.Fatalf("flagged fixture: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"import of math/rand is forbidden", "time.Since() reads the wall clock", "(detrand)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("flagged fixture output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("flagged fixture: no finding count on stderr: %q", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{fixtures + "detrand/clean"}, &out, &errOut); code != 0 || out.Len() != 0 {
		t.Fatalf("clean fixture: exit %d, output %q %q", code, out.String(), errOut.String())
	}

	if code := run([]string{fixtures + "no/such/dir"}, &out, &errOut); code != 1 {
		t.Fatalf("missing package: exit %d, want 1", code)
	}
}
