package runtel

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"riskroute/internal/obs"
)

// finishManifest parses args over a flag set carrying one computation flag
// plus every observability and scheduling flag the binaries define, then
// finishes a run with a ledger and returns its manifest's raw sections.
// The flags are inert strings here: the manifest's config must depend on
// which flags were set, not on what the binary did with them.
func finishManifest(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.String("network", "Level3", "")
	for _, name := range []string{"log", "telemetry", "trace-out", "runs",
		"cpuprofile", "memprofile", "debug-addr", "workers"} {
		fs.String(name, "", "")
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	r := Run{Prog: "test", Name: "test"}
	if err := r.OpenLedger(t.TempDir(), args); err != nil {
		t.Fatal(err)
	}
	r.Health.Degrade("fit", errors.New("boom"), "catalog %d dropped", 2)
	r.Finish(fs, nil)
	data, err := os.ReadFile(filepath.Join(r.Ledger.Dir(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFinishConfigExcludesObservabilityFlags(t *testing.T) {
	plain := finishManifest(t, "-network", "Sprint")
	noisy := finishManifest(t, "-network", "Sprint",
		"-log", "json", "-telemetry", "text", "-trace-out", "trace.json",
		"-runs", "runs", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof",
		"-debug-addr", "127.0.0.1:0", "-workers", "2")
	if string(plain["config"]) != string(noisy["config"]) {
		t.Fatalf("config sections differ:\n%s\nvs\n%s", plain["config"], noisy["config"])
	}
	if got := string(plain["config"]); got != `{
    "network": "Sprint"
  }` {
		t.Fatalf("config = %s, want only the computation flag", got)
	}

	var degraded []obs.LedgerEvent
	if err := json.Unmarshal(plain["degraded"], &degraded); err != nil {
		t.Fatal(err)
	}
	want := obs.LedgerEvent{Stage: "fit", Severity: "degraded", Detail: "catalog 2 dropped (boom)"}
	if len(degraded) != 1 || degraded[0] != want {
		t.Fatalf("degraded = %+v, want [%+v]", degraded, want)
	}
}
