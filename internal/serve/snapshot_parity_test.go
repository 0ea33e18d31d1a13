package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riskroute/internal/datasets"
	worldsnap "riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// parityConfig is the reduced-scale world both boot paths are compared on.
func parityConfig() Config {
	return Config{
		Networks:      []*topology.Network{datasets.NetworkByName("Sprint")},
		Blocks:        4000,
		EventScale:    0.03,
		Seed:          1,
		RequestIDSeed: 7,
	}
}

// parityPaths exercises the route surface both with and without the explain
// attribution block, across distinct PoP pairs and parameters.
func parityPaths() []string {
	pops := datasets.NetworkByName("Sprint").PoPs
	a, b, c, d := pops[0].Name, pops[len(pops)-1].Name, pops[1].Name, pops[len(pops)/2].Name
	return []string{
		routeURL(a, b),
		routeURL(a, b, "explain", "1"),
		routeURL(c, d, "lambda_h", "2e5"),
		routeURL(c, d, "explain", "1", "lambda_h", "5e4"),
	}
}

func rawGet(tb testing.TB, s *Server, path string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestSnapshotBootParity is the tentpole guarantee: a server booted from a
// baked snapshot serves generation-1 routes byte-identical to one that
// fitted the world from scratch, at every worker fan-out.
func TestSnapshotBootParity(t *testing.T) {
	fresh, err := New(parityConfig())
	if err != nil {
		t.Fatalf("fresh New: %v", err)
	}
	if boot := fresh.Boot(); boot.Path != "fit" || boot.Fallback {
		t.Fatalf("fresh boot = %+v, want fit path without fallback", boot)
	}
	want := make(map[string][]byte, len(parityPaths()))
	for _, p := range parityPaths() {
		want[p] = rawGet(t, fresh, p)
	}

	world, err := BakeWorld(parityConfig())
	if err != nil {
		t.Fatalf("BakeWorld: %v", err)
	}
	path := filepath.Join(t.TempDir(), "world.rrws")
	digest, err := worldsnap.WriteFile(path, world)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	for _, workers := range []int{1, 2, 3, 8} {
		cfg := parityConfig()
		cfg.WorldSnapshotPath = path
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("snapshot New(workers=%d): %v", workers, err)
		}
		boot := s.Boot()
		if boot.Path != "snapshot" || boot.Fallback {
			t.Fatalf("workers=%d: boot = %+v, want snapshot path without fallback", workers, boot)
		}
		if boot.SnapshotDigest != digest {
			t.Errorf("workers=%d: boot digest %q, want %q", workers, boot.SnapshotDigest, digest)
		}
		for _, p := range parityPaths() {
			if got := rawGet(t, s, p); string(got) != string(want[p]) {
				t.Errorf("workers=%d: GET %s differs between snapshot and fresh boot:\nsnapshot: %s\nfresh:    %s",
					workers, p, got, want[p])
			}
		}
	}
}

// TestSnapshotPreloadedWorld boots from an in-memory world (Config.World),
// skipping the file entirely — the embedding path.
func TestSnapshotPreloadedWorld(t *testing.T) {
	world, err := BakeWorld(parityConfig())
	if err != nil {
		t.Fatalf("BakeWorld: %v", err)
	}
	cfg := parityConfig()
	cfg.World = world
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New with preloaded world: %v", err)
	}
	if boot := s.Boot(); boot.Path != "snapshot" || boot.Fallback {
		t.Fatalf("boot = %+v, want snapshot path", boot)
	}
	rawGet(t, s, parityPaths()[0])
}

// TestSnapshotFallback covers every degraded boot: a corrupt file, a
// drifted world, an invalid baked risk vector and a file in the previous
// format version must all fall back to the full fit and still serve.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.rrws")
	if err := os.WriteFile(corrupt, []byte("RRWS but not really a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := parityConfig()
	cfg.WorldSnapshotPath = corrupt
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New with corrupt snapshot: %v", err)
	}
	boot := s.Boot()
	if boot.Path != "fit" || !boot.Fallback || boot.FallbackReason == "" {
		t.Fatalf("corrupt snapshot boot = %+v, want fit fallback with a reason", boot)
	}
	rawGet(t, s, parityPaths()[0])

	// A snapshot of a different world (seed drift) must be rejected, not
	// silently served.
	drifted := parityConfig()
	drifted.Seed = 99
	world, err := BakeWorld(drifted)
	if err != nil {
		t.Fatalf("BakeWorld(drifted): %v", err)
	}
	driftPath := filepath.Join(dir, "drift.rrws")
	if _, err := worldsnap.WriteFile(driftPath, world); err != nil {
		t.Fatal(err)
	}
	cfg = parityConfig()
	cfg.WorldSnapshotPath = driftPath
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("New with drifted snapshot: %v", err)
	}
	if boot = s.Boot(); boot.Path != "fit" || !boot.Fallback {
		t.Fatalf("drifted snapshot boot = %+v, want fit fallback", boot)
	}
	rawGet(t, s, parityPaths()[0])

	// A negative population fraction passes every checksum, but an engine
	// over it searches negative edge weights and never settles: boot must
	// reject it, naming the network, before any route runs.
	world, err = BakeWorld(parityConfig())
	if err != nil {
		t.Fatalf("BakeWorld: %v", err)
	}
	world.Networks[0].Fractions[0] = -0.9
	cfg = parityConfig()
	cfg.World = world
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("New with an invalid baked fraction: %v", err)
	}
	if boot = s.Boot(); boot.Path != "fit" || !boot.Fallback || !strings.Contains(boot.FallbackReason, `"Sprint"`) {
		t.Fatalf("invalid fraction boot = %+v, want fit fallback naming Sprint", boot)
	}
	rawGet(t, s, parityPaths()[0])

	// A snapshot written in the previous format version (every file baked
	// before the census left the format) is refused by version, not read.
	world, err = BakeWorld(parityConfig())
	if err != nil {
		t.Fatalf("BakeWorld: %v", err)
	}
	var buf bytes.Buffer
	if _, err := worldsnap.Write(&buf, world); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	binary.LittleEndian.PutUint32(v1[4:], 1)
	oldPath := filepath.Join(dir, "v1.rrws")
	if err := os.WriteFile(oldPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = parityConfig()
	cfg.WorldSnapshotPath = oldPath
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("New with a version-1 snapshot: %v", err)
	}
	if boot = s.Boot(); boot.Path != "fit" || !boot.Fallback || !strings.Contains(boot.FallbackReason, "version 1") {
		t.Fatalf("version-1 snapshot boot = %+v, want fit fallback naming version 1", boot)
	}
	rawGet(t, s, parityPaths()[0])
}
