package serve

import (
	"io"
	"testing"

	worldsnap "riskroute/internal/snapshot"
)

// parityBakeDigest is the snapshot digest of parityConfig()'s world. The
// digest covers every section's SHA-256, so it pins the fitted fields, the
// census, the population assignment and the encoding across builds, where
// TestWriteDeterministic and the bake smoke compare two runs of one build.
// Like the reproduction goldens it is pinned on linux/amd64 (this file's
// name limits it to that platform); a change that moves a baked number on
// purpose updates it.
const parityBakeDigest = "9ede860cfd50c8e2fc57578a17a830623cf357ccf63b80e3fa94b5e966b78645"

func TestBakeDigestPinned(t *testing.T) {
	world, err := BakeWorld(parityConfig())
	if err != nil {
		t.Fatal(err)
	}
	digest, err := worldsnap.Write(io.Discard, world)
	if err != nil {
		t.Fatal(err)
	}
	if digest != parityBakeDigest {
		t.Errorf("baked digest %s, want %s", digest, parityBakeDigest)
	}
}
