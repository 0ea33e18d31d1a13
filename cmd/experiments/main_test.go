package main

// Integration tests: build the binary once and run it end to end, as the
// riskroute CLI tests do.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-cli")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building experiments: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestConfigErrorsCarryOnePrefix runs the two world settings the Lab
// refuses before building anything, a replay stride below 1 and too few
// census blocks, and requires each to fail promptly with its reason under
// one "experiments:" prefix.
func TestConfigErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fast", "-run", "figure12", "-stride", "-1"},
			"experiments: replay stride -1 below 1 (0 means the default)\n"},
		{[]string{"-fast", "-run", "table2", "-blocks", "2500"},
			"experiments: census blocks 2500 below the minimum of 2510 (0 means the default)\n"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, binPath, tc.args...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		cmd := "experiments " + strings.Join(tc.args, " ")
		if timedOut || err == nil {
			t.Errorf("%s: want a prompt failure, got err %v:\n%.2000s", cmd, err, out)
			continue
		}
		if !strings.HasSuffix(string(out), tc.want) || strings.Count(string(out), "experiments:") != 1 {
			t.Errorf("%s: output\n%s\nwant it to end with one prefixed line %q", cmd, out, tc.want)
		}
	}
}
