package serve

import (
	"io"
	"testing"

	worldsnap "riskroute/internal/snapshot"
)

// parityBakeDigest is the snapshot digest of parityConfig()'s world. The
// digest covers every section's SHA-256, so it pins the fitted fields, the
// historical risks, the population fractions and the encoding across
// builds, where TestWriteDeterministic and the bake smoke compare two runs
// of one build. Like the reproduction goldens it is pinned on linux/amd64
// (this file's name limits it to that platform); a change that moves a
// baked number or the format on purpose updates it.
const parityBakeDigest = "7040e124f2b6dc68743a19dade28281dafc0b9a1ca924d3da18329820121d8cd"

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
