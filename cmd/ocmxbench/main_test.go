package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAnError: an -exp value that names no experiment
// exits non-zero with the valid names on stderr and nothing on stdout
// (`-exp e12` and `-exp E9` used to print nothing and exit 0), and the
// deleted -json, -shards and -progress flags are flag-parse errors.
func TestUnknownExperimentIsAnError(t *testing.T) {
	for _, args := range [][]string{{"-exp", "e12"}, {"-exp", "E9"}, {"-json", "x"}, {"-shards", "1"}, {"-progress"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no table", args, code, &stdout)
		}
		if args[0] == "-exp" && !strings.Contains(stderr.String(), "all, e1, e2") {
			t.Errorf("%v: stderr %q does not list the experiments", args, &stderr)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "e1"}, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "E1 —") {
		t.Errorf("-exp e1: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}
