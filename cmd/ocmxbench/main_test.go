package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentIsAnError: an -exp value that names no experiment
// exits non-zero with the valid names on stderr and nothing on stdout
// (`-exp e12` and `-exp E9` used to print nothing and exit 0), and the
// deleted -json, -shards and -progress flags are flag-parse errors. A run
// that succeeds writes its tables and nothing on stderr.
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
	if code := run([]string{"-exp", "all", "-strict"}, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "E1 —") || stderr.Len() != 0 {
		t.Errorf("-exp all -strict: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}

// TestHelpExitsZero: -h prints the usage, which names -exp, and exits 0;
// an unknown flag, the deleted -obs among them, is a parse error and
// exits 2. Neither runs a table.
func TestHelpExitsZero(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		code int
	}{{"-h", 0}, {"-nope", 2}, {"-obs", 2}} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.arg}, &stdout, &stderr); code != tc.code || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q; want exit %d and no table", tc.arg, code, &stdout, tc.code)
		}
		if !strings.Contains(stderr.String(), "-exp") {
			t.Errorf("%s: usage %q does not name -exp", tc.arg, &stderr)
		}
	}
}

// TestAutopsyFlag: -autopsy FILE changes no table byte and writes nothing
// on stderr; FILE is created, and stays empty because no E9 cell stalls at
// seed 1993. A FILE that cannot be created fails before any table runs.
func TestAutopsyFlag(t *testing.T) {
	var plain, plainErr bytes.Buffer
	if code := run([]string{"-exp", "e9"}, &plain, &plainErr); code != 0 {
		t.Fatalf("-exp e9: exit %d, stderr %q", code, &plainErr)
	}
	path := filepath.Join(t.TempDir(), "e9.autopsy")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "e9", "-autopsy", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("-exp e9 -autopsy: exit %d, stderr %q", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), plain.Bytes()) {
		t.Errorf("-autopsy moved the table:\nwith:\n%s\nwithout:\n%s", &stdout, &plain)
	}
	if stderr.Len() != 0 {
		t.Errorf("-autopsy: stderr %q, want none", &stderr)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("-autopsy file: %v, err %v; want an empty file", fi, err)
	}

	stdout.Reset()
	stderr.Reset()
	bad := filepath.Join(t.TempDir(), "missing", "e9.autopsy")
	if code := run([]string{"-exp", "e9", "-autopsy", bad}, &stdout, &stderr); code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-autopsy") {
		t.Errorf("-autopsy %s: exit %d, stdout %q, stderr %q; want exit 1 before any table", bad, code, &stdout, &stderr)
	}
}
