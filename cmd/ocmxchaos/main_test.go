package main

import (
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

// TestComposeNodeCommandsParse passes each node command of
// docker-compose.yml to runNode with -h appended. Every flag the file
// sets must be one the binary defines: a stale one makes each container
// crash-loop at start while `docker compose config -q`, which checks
// only the YAML, stays green.
func TestComposeNodeCommandsParse(t *testing.T) {
	b, err := os.ReadFile("../../docker-compose.yml")
	if err != nil {
		t.Fatal(err)
	}
	cmds := composeCommands(string(b))
	if len(cmds) == 0 {
		t.Fatal("docker-compose.yml: no command lists found")
	}
	for _, cmd := range cmds {
		if len(cmd) == 0 || cmd[0] != "node" {
			t.Fatalf("compose command %q does not start with the node mode", cmd)
		}
		if err := runNode(append(cmd[1:], "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("compose command %q: runNode = %v, want flag.ErrHelp", cmd, err)
		}
	}
}

// TestHelpExitsZero: -h on either mode prints the mode's flags (the flag
// set writes them itself) and exits 0, with no error line.
func TestHelpExitsZero(t *testing.T) {
	for _, mode := range []string{"local", "node"} {
		var stderr strings.Builder
		if code := run([]string{mode, "-h"}, &stderr); code != 0 || stderr.Len() > 0 {
			t.Errorf("ocmxchaos %s -h: exit %d, stderr %q; want exit 0 and no error line", mode, code, stderr.String())
		}
	}
}

// composeCommands returns each service's command: the "- " items under
// a "command:" line.
func composeCommands(yml string) [][]string {
	var cmds [][]string
	in := false
	for _, line := range strings.Split(yml, "\n") {
		line = strings.TrimSpace(line)
		item, isItem := strings.CutPrefix(line, "- ")
		switch {
		case line == "command:":
			cmds, in = append(cmds, nil), true
		case in && isItem:
			cmds[len(cmds)-1] = append(cmds[len(cmds)-1], item)
		default:
			in = false
		}
	}
	return cmds
}
