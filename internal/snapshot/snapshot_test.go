package snapshot

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/topology"
)

// testField builds a deterministic density surface over a rows x cols grid.
func testField(rows, cols int, seed float64) *kde.Field {
	g := geo.NewGrid(geo.Bounds{MinLat: 25, MaxLat: 49, MinLon: -125, MaxLon: -66}, rows, cols)
	f := kde.NewField(g)
	for i := range f.Values {
		f.Values[i] = seed + float64(i)*0.25 + math.Sin(float64(i))*1e-3
	}
	return f
}

func testNet(name string, pops int) *topology.Network {
	n := &topology.Network{Name: name, Tier: topology.Tier1}
	for i := 0; i < pops; i++ {
		n.PoPs = append(n.PoPs, topology.PoP{
			Name:     name + "-" + string(rune('A'+i)),
			Location: geo.Point{Lat: 30 + float64(i)*1.5, Lon: -100 + float64(i)*2},
			State:    "TX",
		})
		if i > 0 {
			n.Links = append(n.Links, topology.Link{A: i - 1, B: i})
		}
	}
	return n
}

func vec(n int, base float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + float64(i)
	}
	return v
}

// testWorld hand-builds a small but fully populated world: two catalogs on
// different grids, lost sources, a non-unit renorm, and two networks of
// different sizes.
func testWorld() *World {
	netA, netB := testNet("Alpha", 3), testNet("Beta", 2)
	return &World{
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		Renorm:     0.97,
		Lost:       []string{"flood"},
		Catalogs: []Catalog{
			{Name: "hurricane", Bandwidth: 42.5, Events: 1337, Field: testField(3, 5, 1)},
			{Name: "quake", Bandwidth: 7.25, Events: 99, Field: testField(2, 2, 2)},
		},
		Networks: []NetworkState{
			{Name: "Alpha", TopoHash: HashNetwork(netA), PoPs: 3,
				Hist: vec(3, 0.1), Fractions: []float64{0.2, 0.3, 0.5}},
			{Name: "Beta", TopoHash: HashNetwork(netB), PoPs: 2,
				Hist: vec(2, 0.7), Fractions: []float64{0.4, 0.6}},
		},
	}
}

func encode(t testing.TB, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Write(&buf, w); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	world := testWorld()
	data := encode(t, world)
	for _, workers := range []int{1, 2, 3, 8} {
		got, stats, err := Decode(data, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("Decode(workers=%d): %v", workers, err)
		}
		if !reflect.DeepEqual(got, world) {
			t.Errorf("Decode(workers=%d) round-trip mismatch", workers)
		}
		if stats.Digest != world.Digest {
			t.Errorf("Decode digest %q != Write digest %q", stats.Digest, world.Digest)
		}
		if stats.Bytes != int64(len(data)) {
			t.Errorf("stats.Bytes = %d, want %d", stats.Bytes, len(data))
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	a := encode(t, testWorld())
	b := encode(t, testWorld())
	if !bytes.Equal(a, b) {
		t.Fatal("two bakes of the same world produced different bytes")
	}
}

// TestMultiPartField exercises the fixed-size field sharding: a surface
// larger than maxPartValues must split into multiple part sections and still
// round-trip exactly.
func TestMultiPartField(t *testing.T) {
	world := testWorld()
	big := testField(3, 200000, 3) // 600k values > maxPartValues
	world.Catalogs = append(world.Catalogs, Catalog{
		Name: "wind", Bandwidth: 10, Events: 143847, Field: big,
	})
	if parts := fieldParts(len(big.Values)); len(parts) < 2 {
		t.Fatalf("fieldParts(%d) = %d parts, want >= 2", len(big.Values), len(parts))
	}
	data := encode(t, world)
	got, _, err := Decode(data, LoadOptions{Workers: 4})
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, world) {
		t.Fatal("multi-part round-trip mismatch")
	}
}

func TestDecodeNotSnapshot(t *testing.T) {
	_, _, err := Decode([]byte("GIF89a-definitely-not-a-world-snapshot"), LoadOptions{})
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("err = %v, want ErrNotSnapshot", err)
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := encode(t, testWorld())
	data[4] = 0xFF // bump the LE version field
	_, _, err := Decode(data, LoadOptions{})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := encode(t, testWorld())
	for _, n := range []int{0, 3, headerLen - 1, headerLen, headerLen + 10, headerLen + secHeaderLen, len(data) - 1} {
		_, _, err := Decode(data[:n], LoadOptions{})
		if n < len("RRWS") {
			if err == nil {
				t.Errorf("Decode(%d bytes) succeeded, want error", n)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d bytes): err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestDecodeChecksum(t *testing.T) {
	data := encode(t, testWorld())
	// Flip one bit inside the first section's payload.
	data[headerLen+secHeaderLen+5] ^= 0x01
	_, _, err := Decode(data, LoadOptions{Workers: 4})
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := encode(t, testWorld())
	_, _, err := Decode(append(data, 0xDE, 0xAD), LoadOptions{})
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestWriteFileLoad(t *testing.T) {
	world := testWorld()
	path := filepath.Join(t.TempDir(), "world.rrws")
	digest, err := WriteFile(path, world)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, stats, err := Load(path, LoadOptions{Workers: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, world) {
		t.Fatal("Load round-trip mismatch")
	}
	if stats.Digest != digest {
		t.Errorf("Load digest %q != WriteFile digest %q", stats.Digest, digest)
	}
	if stats.Sections == 0 || stats.Duration <= 0 {
		t.Errorf("implausible LoadStats: %+v", stats)
	}

	if _, _, err := Load(filepath.Join(t.TempDir(), "missing.rrws"), LoadOptions{}); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestVerifyConfigDrift(t *testing.T) {
	world := testWorld()
	if err := world.VerifyConfig(4000, 0.03, 1); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		blocks int
		scale  float64
		seed   uint64
	}{
		{"blocks", 4001, 0.03, 1},
		{"event scale", 4000, 0.2, 1},
		{"seed", 4000, 0.03, 2},
	} {
		if err := world.VerifyConfig(tc.blocks, tc.scale, tc.seed); !errors.Is(err, ErrDrift) {
			t.Errorf("%s drift: err = %v, want ErrDrift", tc.name, err)
		}
	}
}

func TestVerifyNetworkDrift(t *testing.T) {
	world := testWorld()
	net := testNet("Alpha", 3)
	ns, err := world.VerifyNetwork(net)
	if err != nil {
		t.Fatalf("matching network rejected: %v", err)
	}
	if ns.Name != "Alpha" || len(ns.Hist) != 3 {
		t.Fatalf("wrong state returned: %+v", ns)
	}

	if _, err := world.VerifyNetwork(testNet("Gamma", 3)); !errors.Is(err, ErrDrift) {
		t.Errorf("unknown network: err = %v, want ErrDrift", err)
	}

	// One ULP of coordinate drift must change the identity hash.
	moved := testNet("Alpha", 3)
	moved.PoPs[1].Location.Lat = math.Nextafter(moved.PoPs[1].Location.Lat, 90)
	if _, err := world.VerifyNetwork(moved); !errors.Is(err, ErrDrift) {
		t.Errorf("coordinate drift: err = %v, want ErrDrift", err)
	}

	relinked := testNet("Alpha", 3)
	relinked.Links = append(relinked.Links, topology.Link{A: 0, B: 2})
	if _, err := world.VerifyNetwork(relinked); !errors.Is(err, ErrDrift) {
		t.Errorf("link drift: err = %v, want ErrDrift", err)
	}

	// Vectors no risk context accepts are malformed, whatever their length.
	for _, bad := range []float64{-0.9, math.NaN(), math.Inf(1)} {
		w := testWorld()
		w.Networks[0].Fractions[1] = bad
		if _, err := w.VerifyNetwork(net); !errors.Is(err, ErrFormat) {
			t.Errorf("fraction %v: err = %v, want ErrFormat", bad, err)
		}
		w = testWorld()
		w.Networks[0].Hist[2] = bad
		if _, err := w.VerifyNetwork(net); !errors.Is(err, ErrFormat) {
			t.Errorf("hist %v: err = %v, want ErrFormat", bad, err)
		}
	}
}

func TestHashNetworkDistinguishes(t *testing.T) {
	base := testNet("Alpha", 3)
	h := HashNetwork(base)
	mutations := map[string]func(*topology.Network){
		"name":  func(n *topology.Network) { n.Name = "Alpha2" },
		"tier":  func(n *topology.Network) { n.Tier = topology.Regional },
		"pop":   func(n *topology.Network) { n.PoPs[0].Name = "Alpha-Z" },
		"state": func(n *topology.Network) { n.PoPs[2].State = "OK" },
		"coord": func(n *topology.Network) { n.PoPs[0].Location.Lon += 1e-12 },
		"links": func(n *topology.Network) { n.Links = n.Links[:1] },
	}
	for what, mutate := range mutations {
		m := testNet("Alpha", 3)
		mutate(m)
		if HashNetwork(m) == h {
			t.Errorf("%s mutation did not change the topology hash", what)
		}
	}
	if HashNetwork(testNet("Alpha", 3)) != h {
		t.Error("hash not deterministic")
	}
}

func TestValidateRejects(t *testing.T) {
	for what, mutate := range map[string]func(*World){
		"no catalogs":    func(w *World) { w.Catalogs = nil },
		"unnamed":        func(w *World) { w.Catalogs[0].Name = "" },
		"nil field":      func(w *World) { w.Catalogs[0].Field = nil },
		"short field":    func(w *World) { w.Catalogs[0].Field.Values = w.Catalogs[0].Field.Values[:3] },
		"unnamed net":    func(w *World) { w.Networks[0].Name = "" },
		"short vectors":  func(w *World) { w.Networks[1].Hist = nil },
		"wrong popcount": func(w *World) { w.Networks[0].PoPs = 7 },
	} {
		w := testWorld()
		mutate(w)
		if err := w.Validate(); err == nil {
			t.Errorf("Validate accepted a world with %s", what)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, w); err == nil {
			t.Errorf("Write accepted a world with %s", what)
		}
	}
}

// BenchmarkWrite encodes a world whose bulk is shaped like riskrouted's
// default bake, a 2M-value field split over four part sections, written to
// a discarding writer so the encoding and the checksums are what is timed.
func BenchmarkWrite(b *testing.B) {
	world := testWorld()
	world.Catalogs = append(world.Catalogs, Catalog{
		Name: "wind", Bandwidth: 3.59, Events: 28769, Field: testField(1000, 2000, 3),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Write(io.Discard, world); err != nil {
			b.Fatal(err)
		}
	}
}
