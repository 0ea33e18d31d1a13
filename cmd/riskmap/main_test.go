package main

// Integration tests: build the binary once and run it end to end, as the
// riskroute and experiments CLI tests do.

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
	dir, err := os.MkdirTemp("", "riskmap-cli")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "riskmap")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building riskmap: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// riskmap runs the binary with args under a minute's deadline and returns
// its stdout, its stderr and its exit error.
func riskmap(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, binPath, args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("riskmap %s: still running after a minute", strings.Join(args, " "))
	}
	return out.String(), errOut.String(), err
}

// TestCatalogLayerSizedLikeSyntheticSources: a single-catalog layer draws
// as many events as the same catalog has in the world every other binary
// fits, the paper's count times -event-scale with a floor of 50, so a tiny
// scale reads 50 events, not the paper's 2,805.
func TestCatalogLayerSizedLikeSyntheticSources(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-layer", "hurricane"}, "FEMA Hurricane risk surface (561 events, bandwidth 71.56 mi)\n"},
		{[]string{"-layer", "hurricane", "-event-scale", "1e-9"}, "FEMA Hurricane risk surface (50 events, bandwidth 71.56 mi)\n"},
	} {
		out, _, err := riskmap(t, tc.args...)
		if err != nil || !strings.HasPrefix(out, tc.want) {
			first, _, _ := strings.Cut(out, "\n")
			t.Errorf("riskmap %s: err %v, first line %q, want %q", strings.Join(tc.args, " "), err, first, tc.want)
		}
	}
}

// TestSVGWidth: a width below 1 is refused before anything is drawn or
// written, and any other width reaches the SVG.
func TestSVGWidth(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "map.svg")
	for _, width := range []string{"0", "-3"} {
		out, errOut, err := riskmap(t, "-layer", "network", "-svg", svg, "-svg-width", width)
		want := "riskmap: SVG width " + width + " below 1 pixel\n"
		if err == nil || out != "" || errOut != want {
			t.Errorf("-svg-width %s: err %v, stdout %.200q, stderr %.200q; want a failure printing only %q",
				width, err, out, errOut, want)
		}
		if _, statErr := os.Stat(svg); statErr == nil {
			t.Fatalf("-svg-width %s wrote %s", width, svg)
		}
	}
	if _, errOut, err := riskmap(t, "-layer", "network", "-svg", svg, "-svg-width", "300"); err != nil {
		t.Fatalf("-svg-width 300: %v\n%s", err, errOut)
	}
	body, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `<svg xmlns="http://www.w3.org/2000/svg" width="300" `) {
		t.Errorf("-svg-width 300 wrote %.120q", body)
	}
}
