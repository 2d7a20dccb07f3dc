package bhss

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"bhss/internal/impair"
	"bhss/internal/iqstream"
	"bhss/internal/jammer"
)

// readmeSpecArg matches a spec-taking flag and its argument on a command
// line: -jam, -impair or -chaos, then a single-quoted or bare word.
var readmeSpecArg = regexp.MustCompile(`-(jam|impair|chaos) ('[^']*'|[^\s'` + "`" + `]+)`)

// readmeZooCell matches a jam= spec in the first cell of the jammer zoo
// table.
var readmeZooCell = regexp.MustCompile("^\\| `(jam=[^`]*)` \\|")

// TestReadmeSpecsParse parses every spec README.md advertises with the
// grammar that will receive it: each -jam, -impair and -chaos argument and
// each jam= cell of the zoo table. Placeholders such as '<spec>' are
// skipped. A README line that names vocabulary the grammar rejects fails
// here instead of on a reader's command line.
func TestReadmeSpecsParse(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	parse := map[string]func(string) error{
		"jam":    func(s string) error { _, err := jammer.ParseSpec(s); return err },
		"impair": func(s string) error { _, err := impair.ParseSpec(s); return err },
		"chaos":  func(s string) error { _, err := iqstream.ParseChaosSpec(s); return err },
	}
	seen := map[string]int{}
	check := func(line int, grammar, spec string) {
		t.Helper()
		seen[grammar]++
		if err := parse[grammar](spec); err != nil {
			t.Errorf("README.md:%d: -%s %q: %v", line, grammar, spec, err)
		}
	}
	for i, line := range strings.Split(string(data), "\n") {
		if m := readmeZooCell.FindStringSubmatch(line); m != nil {
			check(i+1, "jam", m[1])
			continue
		}
		for _, m := range readmeSpecArg.FindAllStringSubmatch(line, -1) {
			spec := strings.Trim(m[2], "'")
			if strings.Contains(spec, "<") {
				continue
			}
			check(i+1, m[1], spec)
		}
	}
	// The patterns must keep finding README's specs: a reformatted README
	// that this test no longer reads would otherwise pass silently.
	for grammar := range parse {
		if seen[grammar] == 0 {
			t.Errorf("found no %s spec in README.md", grammar)
		}
	}
}
