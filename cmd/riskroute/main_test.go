package main

// Integration tests: build the CLI once and exercise every subcommand end
// to end with a reduced synthetic world. These catch flag wiring, output
// formatting, and cross-package plumbing that unit tests can't.

import (
	"bytes"
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
	dir, err := os.MkdirTemp("", "riskroute-cli")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "riskroute")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building CLI: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny are the world flags keeping each invocation fast.
var tiny = []string{"-blocks", "4000", "-event-scale", "0.03"}

func run(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(binPath, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("riskroute %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// errorDeadline bounds a run expected to fail: bad input must be refused
// promptly, and a run that outlives it (a hang) fails the test.
const errorDeadline = time.Minute

func runExpectError(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), errorDeadline)
	defer cancel()
	out, err := exec.CommandContext(ctx, binPath, args...).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("riskroute %s: still running after %v:\n%.2000s", strings.Join(args, " "), errorDeadline, out)
	}
	if err == nil {
		t.Fatalf("riskroute %s: expected failure, got:\n%s", strings.Join(args, " "), out)
	}
	return string(out)
}

func TestCLINetworks(t *testing.T) {
	out := run(t, "networks")
	for _, want := range []string{"Level3", "233 PoPs", "Telepak", "regional"} {
		if !strings.Contains(out, want) {
			t.Errorf("networks output missing %q", want)
		}
	}
}

func TestCLIRoute(t *testing.T) {
	out := run(t, append([]string{"route", "-network", "Level3", "-from", "Houston", "-to", "Boston"}, tiny...)...)
	for _, want := range []string{"shortest", "riskroute", "Houston", "Boston", "risk reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("route output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIRouteWithStorm(t *testing.T) {
	out := run(t, append([]string{"route", "-network", "Sprint", "-from", "Miami", "-to", "Boston", "-storm", "Sandy"}, tiny...)...)
	if !strings.Contains(out, "Sandy advisory") {
		t.Errorf("storm route missing advisory tag:\n%s", out)
	}
}

func TestCLIRatios(t *testing.T) {
	out := run(t, append([]string{"ratios", "-network", "DT"}, tiny...)...)
	if !strings.Contains(out, "intradomain") || !strings.Contains(out, "risk reduction") {
		t.Errorf("ratios output:\n%s", out)
	}
}

// provisionRuns are the provision invocations behind
// testdata/provision.golden, in order.
var provisionRuns = [][]string{
	{"-network", "AT&T", "-links", "12"},               // the paper's rule runs dry after 2 links
	{"-network", "Tinet", "-links", "12"},              // and after 6
	{"-network", "Tinet", "-links", "4", "-span-risk"}, // span risk priced at every step
}

// TestCLIProvision diffs the greedy's stdout for provisionRuns against
// testdata/provision.golden byte for byte (regeneration: testdata/README.md).
func TestCLIProvision(t *testing.T) {
	want, err := os.ReadFile("testdata/provision.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, args := range provisionRuns {
		got = append(got, runStdout(t, append(append([]string{"provision"}, args...), tiny...)...)...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("provision stdout differs from testdata/provision.golden:\n%s", got)
	}
}

func TestCLIPeers(t *testing.T) {
	out := run(t, append([]string{"peers", "-network", "Telepak"}, tiny...)...)
	if !strings.Contains(out, "candidate peerings for Telepak") {
		t.Errorf("peers output:\n%s", out)
	}
}

func TestCLIScope(t *testing.T) {
	out := run(t, "scope", "-storm", "Katrina")
	if !strings.Contains(out, "Katrina cumulative wind-field scope") {
		t.Errorf("scope output:\n%s", out)
	}
	// Gulf networks must appear.
	if !strings.Contains(out, "Telepak") && !strings.Contains(out, "Costreet") {
		t.Errorf("Katrina scope misses Gulf networks:\n%s", out)
	}
}

func TestCLIOutage(t *testing.T) {
	out := run(t, append([]string{"outage", "-storm", "Katrina", "-network", "Sprint"}, tiny...)...)
	for _, want := range []string{"failed PoPs", "disconnected pairs", "stranded population"} {
		if !strings.Contains(out, want) {
			t.Errorf("outage output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIBackup(t *testing.T) {
	out := run(t, append([]string{"backup", "-network", "NTT", "-from", "Seattle", "-to", "Miami"}, tiny...)...)
	if !strings.Contains(out, "fast-reroute plan") || !strings.Contains(out, "primary") {
		t.Errorf("backup output:\n%s", out)
	}
	if !strings.Contains(out, "if ") {
		t.Errorf("backup output lists no failure cases:\n%s", out)
	}
}

func TestCLIKPaths(t *testing.T) {
	out := run(t, append([]string{"kpaths", "-network", "Sprint", "-from", "Denver", "-to", "Miami", "-k", "3", "-sla-stretch", "0.25"}, tiny...)...)
	if !strings.Contains(out, "risk-diverse paths") || !strings.Contains(out, "SLA-constrained") {
		t.Errorf("kpaths output:\n%s", out)
	}
}

func TestCLIWeights(t *testing.T) {
	out := run(t, append([]string{"weights", "-network", "DT"}, tiny...)...)
	if !strings.Contains(out, "composite OSPF link weights") || !strings.Contains(out, "metric") {
		t.Errorf("weights output:\n%s", out)
	}
	if !strings.Contains(out, "verification:") {
		t.Errorf("weights output missing verification:\n%s", out)
	}
}

func TestCLISharedRisk(t *testing.T) {
	out := run(t, append([]string{"sharedrisk", "-top", "5"}, tiny...)...)
	if !strings.Contains(out, "shared disaster exposure") {
		t.Errorf("sharedrisk output:\n%s", out)
	}
	if strings.Count(out, "~") < 5 {
		t.Errorf("sharedrisk shows fewer than 5 pairs:\n%s", out)
	}
}

func TestCLITopologyFile(t *testing.T) {
	// Round-trip a custom topology file through the CLI.
	topo := `network|MiniNet|tier1
pop|A|29.95|-90.07|LA
pop|B|32.30|-90.18|MS
pop|C|35.15|-90.05|TN
link|A|B
link|B|C
`
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.topo")
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, append([]string{"route", "-topology", path, "-network", "MiniNet", "-from", "A", "-to", "C"}, tiny...)...)
	if !strings.Contains(out, "A -> B -> C") {
		t.Errorf("custom topology route:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	out := runExpectError(t, "route", "-network", "NoSuchNet")
	if !strings.Contains(out, "unknown network") {
		t.Errorf("error message: %s", out)
	}
	out = runExpectError(t, "definitely-not-a-command")
	if !strings.Contains(out, "unknown command") {
		t.Errorf("error message: %s", out)
	}
	out = runExpectError(t, "scope", "-storm", "Bob")
	if !strings.Contains(out, "unknown storm") {
		t.Errorf("error message: %s", out)
	}
	out = runExpectError(t, append([]string{"kpaths", "-network", "Sprint", "-from", "Atlanta", "-to", "Seattle", "-k", "0"}, tiny...)...)
	if !strings.Contains(out, "-k must be at least 1") || strings.Contains(out, "panic:") {
		t.Errorf("kpaths -k 0: %s", out)
	}
	out = runExpectError(t, "provision", "-network", "Tinet", "-blocks", "2500", "-event-scale", "0.03")
	if !strings.Contains(out, "minimum of 2510") || strings.Contains(out, "panic:") {
		t.Errorf("provision -blocks 2500: %s", out)
	}
	// A stride of 0 would never advance the replay loop, and a negative one
	// would index before the first advisory.
	for _, stride := range []string{"-1", "0"} {
		out = runExpectError(t, append([]string{"replay", "-stride", stride}, tiny...)...)
		if !strings.Contains(out, "-stride must be at least 1") || strings.Contains(out, "panic:") {
			t.Errorf("replay -stride %s: %.2000s", stride, out)
		}
	}
	// A NaN radius would count every PoP pair as co-located, and one at or
	// below 0 measures no co-location: both are refused before the fit.
	for _, radius := range []string{"NaN", "-5"} {
		out = runExpectError(t, append([]string{"sharedrisk", "-radius", radius}, tiny...)...)
		if !strings.Contains(out, "-radius must be a finite positive number") || strings.Contains(out, "overlap") {
			t.Errorf("sharedrisk -radius %s: %.2000s", radius, out)
		}
	}
}

func TestCLIFIB(t *testing.T) {
	out := run(t, append([]string{"fib", "-network", "DT", "-from", "New York"}, tiny...)...)
	if !strings.Contains(out, "forwarding table") || !strings.Contains(out, "lfa") {
		t.Errorf("fib output:\n%s", out)
	}
	if !strings.Contains(out, "destinations protected") {
		t.Errorf("fib output missing protection summary:\n%s", out)
	}
}

func TestCLISeason(t *testing.T) {
	if testing.Short() {
		t.Skip("season fits four hazard models")
	}
	out := run(t, append([]string{"season", "-network", "Costreet"}, tiny...)...)
	for _, want := range []string{"Winter", "Spring", "Summer", "Fall", "risk reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("season output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIRouteSVG(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "route.svg")
	out := run(t, append([]string{"route", "-network", "Sprint", "-from", "Denver", "-to", "Miami", "-svg", svg}, tiny...)...)
	if !strings.Contains(out, "wrote "+svg) {
		t.Errorf("route output missing SVG confirmation:\n%s", out)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
		t.Errorf("SVG content malformed: %.120s", data)
	}
}

func TestCLIExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.topo")
	run(t, "export", "-o", path)
	// The exported corpus feeds straight back into -topology.
	out := run(t, append([]string{"route", "-topology", path, "-network", "Abilene",
		"-from", "Seattle", "-to", "Atlanta"}, tiny...)...)
	if !strings.Contains(out, "riskroute") {
		t.Errorf("route over exported corpus:\n%s", out)
	}
	// GraphML export parses as XML.
	gml := filepath.Join(dir, "abilene.graphml")
	run(t, "export", "-network", "Abilene", "-format", "graphml", "-o", gml)
	data, err := os.ReadFile(gml)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<graphml") {
		t.Errorf("graphml export malformed: %.100s", data)
	}
	runExpectError(t, "export", "-format", "graphml") // needs -network
}

func TestCLICheckStorm(t *testing.T) {
	out := run(t, "check", "-storm", "Sandy", "-corrupt-rate", "0.3", "-fault-seed", "7")
	for _, want := range []string{"carried forward", "pipeline health: DEGRADED", "degraded"} {
		if !strings.Contains(out, want) {
			t.Errorf("check -storm output missing %q:\n%s", want, out)
		}
	}
	// Same seed, same faults: the report is reproducible verbatim.
	if again := run(t, "check", "-storm", "Sandy", "-corrupt-rate", "0.3", "-fault-seed", "7"); again != out {
		t.Error("check -storm output not deterministic for a fixed fault seed")
	}
}

func TestCLICheckTopology(t *testing.T) {
	topo := `network|Part|tier1
pop|A|9x.1|-90.07|LA
pop|B|32.30|-90.18|MS
pop|C|35.15|-90.05|TN
link|B|C
`
	path := filepath.Join(t.TempDir(), "part.topo")
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "check", "-topology", path)
	if !strings.Contains(out, "1 networks survive") || !strings.Contains(out, "skipped line 2") {
		t.Errorf("lenient check output:\n%s", out)
	}
	out = runExpectError(t, "check", "-topology", path, "-strict")
	if !strings.Contains(out, "line 2") || !strings.Contains(out, "bad latitude") {
		t.Errorf("strict check error:\n%s", out)
	}
}

func TestCLICheckPipeline(t *testing.T) {
	out := run(t, append([]string{"check", "-network", "Abilene", "-drop-layer", "1"}, tiny...)...)
	for _, want := range []string{"4 hazard layers fitted", "re-normalized by 1.25", "dropped layer", "risk reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeline check output missing %q:\n%s", want, out)
		}
	}
}

func TestCLISpanRisk(t *testing.T) {
	out := run(t, append([]string{"route", "-network", "Sprint", "-from", "Seattle", "-to", "Miami", "-span-risk"}, tiny...)...)
	if !strings.Contains(out, "risk reduction") {
		t.Errorf("span-risk route output:\n%s", out)
	}
}
