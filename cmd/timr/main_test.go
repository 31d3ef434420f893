package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds the timr binary and runs every subcommand a user
// can type at small scale: each must exit 0. A command line without a
// subcommand must fail with usage that names the subcommands.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the timr binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "timr")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	for _, args := range [][]string{
		{"run", "-q", "clickcount"},
		{"run", "-q", "bt"},
		{"refresh", "-days", "3"},
		{"serve", "-requests", "2000"},
		{"help"},
	} {
		if out, err := run(args...); err != nil {
			t.Errorf("timr %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	out, err := run("-q", "bt")
	if err == nil {
		t.Fatal("timr -q bt (no subcommand) must exit non-zero")
	}
	for _, sub := range []string{"run", "serve", "refresh", "bench-json"} {
		if !strings.Contains(out, sub) {
			t.Errorf("usage does not name subcommand %q:\n%s", sub, out)
		}
	}
}
