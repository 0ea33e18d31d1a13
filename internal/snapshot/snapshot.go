// Package snapshot persists a fully fitted RiskRoute world — hazard
// surfaces and each network's historical risk and population fraction
// vectors — as a versioned, checksummed binary file, so a serving daemon can
// boot in milliseconds instead of re-fitting every catalog. This is the
// paper's own offline-precompute / online-route split made durable: `riskroute
// bake` runs the expensive pipeline once, riskrouted -world-snapshot loads
// the result and serves generation 1 bit-identical to a fresh fit.
//
// # Wire format
//
// The file opens with a 16-byte header: the magic "RRWS", a little-endian
// uint32 format version, a uint32 section count, and a reserved uint32
// (zero). Each section is then
//
//	uint32   section kind (little-endian)
//	uint64   payload length (little-endian)
//	[32]byte SHA-256 of the payload
//	bytes    payload
//
// Every multi-byte integer is little-endian; every float64 is its IEEE-754
// bit pattern, little-endian — the ledger's checksum discipline applied
// per-section, so bake output is byte-deterministic: the same world encodes
// to the same bytes, and the file's digest doubles as a world identity.
//
// Section kinds, in their mandatory file order:
//
//	meta       world identity: census blocks, event scale, seed, renorm,
//	           lost layers, catalog / network counts
//	catalog    one per fitted source: name, bandwidth, event count, raster
//	           grid, value count, part count
//	fieldpart  the catalog's raster values, split into <=4 MiB runs so
//	           checksum verification and float decoding fan out over
//	           internal/parallel
//	network    one per network: name, topology identity hash, and the
//	           per-PoP historical risk / fraction vectors
//
// The census itself is not stored: it is a pure function of the meta
// section's block count and seed, and routing reads only the fractions
// assigned from it.
//
// # Failure semantics
//
// Load fails closed with typed errors: ErrNotSnapshot (bad magic),
// ErrVersion (format skew), ErrTruncated (the file ends mid-section — the
// journal's torn-tail case, except a world snapshot is all-or-nothing so a
// torn file is rejected rather than healed), ErrChecksum (an interior
// section fails its SHA-256), ErrFormat (structural corruption inside a
// checksummed section), and ErrDrift (the snapshot was baked from different
// inputs than the serving configuration — topology identity hashes compare
// exact coordinate bit patterns, so even a sub-meter PoP move is drift).
// Callers that can rebuild the world (the serving daemon) treat every load
// error as "fall back to a full fit" and record a degraded-mode event.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/risk"
	"riskroute/internal/topology"
)

// Format identity.
const (
	magic = "RRWS"
	// Version is the wire-format version this package reads and writes.
	Version      = 2
	headerLen    = 16
	secHeaderLen = 4 + 8 + 32 // kind + payload length + SHA-256

	// maxPartValues caps one fieldpart section at 512Ki float64 values
	// (4 MiB), the fan-out granularity of parallel checksum verification
	// and decoding.
	maxPartValues = 1 << 19

	// maxSections and maxSectionBytes bound a corrupted header's damage:
	// a garbage count or length fails fast instead of allocating wildly.
	maxSections     = 1 << 20
	maxSectionBytes = 1 << 31
)

// Section kinds (wire values; append-only). Kind 4 was version 1's census.
const (
	kindMeta      uint32 = 1
	kindCatalog   uint32 = 2
	kindFieldPart uint32 = 3
	kindNetwork   uint32 = 5
)

// Typed load failures. Errors returned by Decode/Load wrap exactly one of
// these sentinels; errors.Is distinguishes "wrong file" from "right file,
// wrong bytes" from "right bytes, wrong world".
var (
	// ErrNotSnapshot marks a file that is not a world snapshot at all.
	ErrNotSnapshot = errors.New("snapshot: not a world snapshot (bad magic)")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated marks a file that ends mid-header or mid-section.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrChecksum marks a section whose SHA-256 does not match its payload.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrFormat marks structural corruption inside checksum-valid sections.
	ErrFormat = errors.New("snapshot: malformed snapshot")
	// ErrDrift marks a snapshot baked from different inputs (topology or
	// world configuration) than the caller is serving.
	ErrDrift = errors.New("snapshot: input drift")
)

// Catalog is one fitted hazard source as persisted: the resolved bandwidth
// and the rasterized density surface.
type Catalog struct {
	Name      string
	Bandwidth float64
	Events    int
	Field     *kde.Field
}

// NetworkState is one network's baked serving state: the vectors serve's
// netBase path needs (historical PoP risk and population fractions) and the
// identity hash of the topology they were computed from.
type NetworkState struct {
	Name      string
	TopoHash  [32]byte
	PoPs      int
	Hist      []float64 // historical PoP risk, index-aligned with PoPs
	Fractions []float64 // population fraction c_i per PoP
}

// World is a decoded (or about-to-be-encoded) world snapshot.
type World struct {
	// World identity: the synthetic-world knobs the snapshot was baked
	// with. Loads fail closed (ErrDrift) when they differ from the serving
	// configuration.
	Blocks     int
	EventScale float64
	Seed       uint64

	// Hazard model state.
	Renorm   float64 // aggregate renormalization (1 at full fidelity)
	Lost     []string
	Catalogs []Catalog

	// Networks carries the per-network baked vectors.
	Networks []NetworkState

	// Digest is the snapshot's identity: the hex SHA-256 over the file
	// header and every section's (kind, length, checksum) record — cheap to
	// recompute at load time, stable across bake runs of the same world.
	// Write and Decode both populate it.
	Digest string
}

// Network returns the baked state for the named network, or nil.
func (w *World) Network(name string) *NetworkState {
	for i := range w.Networks {
		if w.Networks[i].Name == name {
			return &w.Networks[i]
		}
	}
	return nil
}

// VerifyConfig fails closed (ErrDrift) when the snapshot was baked with
// different synthetic-world knobs than the caller is configured to serve:
// a snapshot of a different world would silently change every route.
func (w *World) VerifyConfig(blocks int, eventScale float64, seed uint64) error {
	if w.Blocks != blocks || w.EventScale != eventScale || w.Seed != seed {
		return fmt.Errorf("%w: snapshot world (blocks=%d event-scale=%g seed=%d) differs from configuration (blocks=%d event-scale=%g seed=%d)",
			ErrDrift, w.Blocks, w.EventScale, w.Seed, blocks, eventScale, seed)
	}
	return nil
}

// VerifyNetwork fails closed (ErrDrift) unless the snapshot holds baked
// state for n whose topology identity hash matches n exactly — name, tier,
// PoP names, states, coordinate bit patterns, and links all participate, so
// any drift in the serving topology since bake time is rejected rather than
// silently mispriced. It also fails closed (ErrFormat) on a historical risk
// or population fraction risk.Context.Validate rejects: negative, NaN or
// infinite. On success it returns the network's baked state.
func (w *World) VerifyNetwork(n *topology.Network) (*NetworkState, error) {
	ns := w.Network(n.Name)
	if ns == nil {
		return nil, fmt.Errorf("%w: network %q not in snapshot", ErrDrift, n.Name)
	}
	if got, want := HashNetwork(n), ns.TopoHash; got != want {
		return nil, fmt.Errorf("%w: network %q topology hash %x differs from baked %x",
			ErrDrift, n.Name, got[:8], want[:8])
	}
	if ns.PoPs != len(n.PoPs) || len(ns.Hist) != len(n.PoPs) || len(ns.Fractions) != len(n.PoPs) {
		return nil, fmt.Errorf("%w: network %q baked vectors sized for %d PoPs, topology has %d",
			ErrDrift, n.Name, ns.PoPs, len(n.PoPs))
	}
	ctx := risk.Context{Net: n, Hist: ns.Hist, Fractions: ns.Fractions}
	if err := ctx.Validate(); err != nil {
		return nil, fmt.Errorf("%w: network %q: %v", ErrFormat, n.Name, err)
	}
	return ns, nil
}

// Validate checks the structural invariants an encodable world must hold:
// at least one catalog, every field allocated and sized to its grid, and
// every network's vectors index-aligned with its PoP count.
func (w *World) Validate() error {
	if len(w.Catalogs) == 0 {
		return fmt.Errorf("snapshot: world has no catalogs")
	}
	for i, c := range w.Catalogs {
		if c.Name == "" {
			return fmt.Errorf("snapshot: catalog %d has no name", i)
		}
		if c.Field == nil {
			return fmt.Errorf("snapshot: catalog %q has no field", c.Name)
		}
		if len(c.Field.Values) != c.Field.Grid.Size() {
			return fmt.Errorf("snapshot: catalog %q field has %d values for a %dx%d grid",
				c.Name, len(c.Field.Values), c.Field.Grid.Rows, c.Field.Grid.Cols)
		}
	}
	for _, ns := range w.Networks {
		if ns.Name == "" {
			return fmt.Errorf("snapshot: network state has no name")
		}
		if len(ns.Hist) != ns.PoPs || len(ns.Fractions) != ns.PoPs {
			return fmt.Errorf("snapshot: network %q vectors (%d/%d) not aligned with %d PoPs",
				ns.Name, len(ns.Hist), len(ns.Fractions), ns.PoPs)
		}
	}
	return nil
}

// HashNetwork computes a network's topology identity hash: SHA-256 over the
// exact bit patterns of everything routing reads — name, tier, each PoP's
// name, state, and coordinate float64 bits, and each link's endpoints. Two
// networks hash equal iff routing over them is bit-identical, which is what
// lets a snapshot fail closed on topology drift (a text-format round-trip
// that truncated coordinates hashes differently, on purpose).
func HashNetwork(n *topology.Network) [32]byte {
	h := sha256.New()
	var buf [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		u32(uint32(len(s)))
		h.Write([]byte(s))
	}
	str(n.Name)
	u32(uint32(n.Tier))
	u32(uint32(len(n.PoPs)))
	for _, p := range n.PoPs {
		str(p.Name)
		str(p.State)
		f64(p.Location.Lat)
		f64(p.Location.Lon)
	}
	u32(uint32(len(n.Links)))
	for _, l := range n.Links {
		u32(uint32(l.A))
		u32(uint32(l.B))
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// gridOf is the grid serialization order shared by encode and decode.
func gridBounds(g geo.Grid) [4]float64 {
	return [4]float64{g.Bounds.MinLat, g.Bounds.MinLon, g.Bounds.MaxLat, g.Bounds.MaxLon}
}
