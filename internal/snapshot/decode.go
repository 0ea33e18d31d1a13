package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math"
	"os"
	"time"

	"riskroute/internal/geo"
	"riskroute/internal/kde"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/resilience"
)

// LoadOptions carries the load path's fan-out width and telemetry hooks.
// Everything is optional; the zero value loads single-digest-quietly with
// GOMAXPROCS workers.
type LoadOptions struct {
	// Workers bounds the checksum-verify and section-decode fan-out
	// (<=0 means GOMAXPROCS), mirroring every other parallel stage.
	Workers int
	Metrics *obs.Registry
	Trace   *obs.Span
	Logger  *slog.Logger
	Health  *resilience.Health
}

// LoadStats reports what a successful load did.
type LoadStats struct {
	Sections int
	Bytes    int64
	Digest   string
	Duration time.Duration
}

// dec is the little-endian cursor mirroring enc. Reads past the end of a
// checksum-verified payload mean the payload's structure lies about its
// own contents, so overruns surface as ErrFormat, not ErrTruncated.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s overruns its section", ErrFormat, what)
	}
}

func (d *dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u32(what string) uint32 {
	v := d.take(4, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *dec) u64(what string) uint64 {
	v := d.take(8, what)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (d *dec) f64(what string) float64 {
	return math.Float64frombits(d.u64(what))
}

func (d *dec) str(what string) string {
	n := d.u32(what)
	return string(d.take(int(n), what))
}

// floats decodes a count-prefixed float64 vector, bounding the count by the
// bytes actually present so a corrupt count cannot force a huge allocation.
func (d *dec) floats(what string) []float64 {
	n := d.u64(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off)/8 {
		d.fail(what)
		return nil
	}
	out := make([]float64, n)
	raw := d.take(int(n)*8, what)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// done requires the cursor to have consumed its payload exactly.
func (d *dec) done(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %s has %d trailing bytes", ErrFormat, what, len(d.b)-d.off)
	}
	return nil
}

type section struct {
	kind    uint32
	sum     [32]byte
	payload []byte
}

// Decode parses a snapshot image. The structural walk and checksum bytes
// distinguish the journal's two corruption classes: a file that simply ends
// early is ErrTruncated (a torn write — whoever produced it died mid-bake),
// while content that fails its SHA-256 or contradicts its own counts is
// ErrChecksum/ErrFormat (bit rot — the file must be re-baked, never
// partially trusted). Checksum verification and bulk float decoding fan out
// over opt.Workers.
func Decode(data []byte, opt LoadOptions) (*World, *LoadStats, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], []byte(magic)) {
		return nil, nil, ErrNotSnapshot
	}
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("%w: %d-byte file ends inside the header", ErrTruncated, len(data))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, nil, fmt.Errorf("%w: file is version %d, this build reads version %d", ErrVersion, v, Version)
	}
	if len(data) < headerLen {
		return nil, nil, fmt.Errorf("%w: %d-byte file ends inside the header", ErrTruncated, len(data))
	}
	nSec := binary.LittleEndian.Uint32(data[8:])
	if nSec == 0 || nSec > maxSections {
		return nil, nil, fmt.Errorf("%w: implausible section count %d", ErrFormat, nSec)
	}
	if rsvd := binary.LittleEndian.Uint32(data[12:]); rsvd != 0 {
		return nil, nil, fmt.Errorf("%w: reserved header field is %#x", ErrFormat, rsvd)
	}

	// Structural walk: collect section descriptors and fold the digest over
	// the same header bytes Write hashed.
	root := sha256.New()
	root.Write(data[:headerLen])
	secs := make([]section, 0, nSec)
	off := headerLen
	for i := 0; i < int(nSec); i++ {
		if len(data)-off < secHeaderLen {
			return nil, nil, fmt.Errorf("%w: file ends inside section %d/%d header", ErrTruncated, i+1, nSec)
		}
		hdr := data[off : off+secHeaderLen]
		kind := binary.LittleEndian.Uint32(hdr)
		plen := binary.LittleEndian.Uint64(hdr[4:])
		if plen > maxSectionBytes {
			return nil, nil, fmt.Errorf("%w: section %d claims %d bytes", ErrFormat, i, plen)
		}
		off += secHeaderLen
		if uint64(len(data)-off) < plen {
			return nil, nil, fmt.Errorf("%w: file ends inside section %d/%d payload (%d of %d bytes present)",
				ErrTruncated, i+1, nSec, len(data)-off, plen)
		}
		var s section
		s.kind = kind
		copy(s.sum[:], hdr[12:])
		s.payload = data[off : off+int(plen)]
		off += int(plen)
		root.Write(hdr)
		secs = append(secs, s)
	}
	if off != len(data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after final section", ErrFormat, len(data)-off)
	}
	digest := hex.EncodeToString(root.Sum(nil))

	// Verify every section's checksum in parallel before trusting any byte
	// of any payload.
	bad := make([]bool, len(secs))
	parallel.ForEach(len(secs), opt.Workers, func(i int) {
		bad[i] = sha256.Sum256(secs[i].payload) != secs[i].sum
	})
	for i, b := range bad {
		if b {
			opt.Metrics.Counter("snapshot.checksum_failures").Inc()
			return nil, nil, fmt.Errorf("%w: section %d (kind %d, %d bytes)", ErrChecksum, i, secs[i].kind, len(secs[i].payload))
		}
	}

	world, err := decodeSections(secs, opt.Workers)
	if err != nil {
		return nil, nil, err
	}
	world.Digest = digest
	return world, &LoadStats{Sections: len(secs), Bytes: int64(len(data)), Digest: digest}, nil
}

// decodeSections interprets checksum-verified sections in their mandatory
// order: meta, then each catalog header followed by its field parts, then
// one section per network. Small headers decode inline; the bulk payloads
// (field parts, network vectors) are deferred into jobs that fan out over
// workers and write disjoint slots.
func decodeSections(secs []section, workers int) (*World, error) {
	if secs[0].kind != kindMeta {
		return nil, fmt.Errorf("%w: first section is kind %d, want meta", ErrFormat, secs[0].kind)
	}
	md := &dec{b: secs[0].payload}
	world := &World{
		Blocks:     int(md.u64("meta blocks")),
		EventScale: md.f64("meta event scale"),
		Seed:       md.u64("meta seed"),
		Renorm:     md.f64("meta renorm"),
	}
	nLost := md.u32("meta lost count")
	if md.err == nil && uint64(nLost) > uint64(len(md.b)) {
		md.fail("meta lost count")
	}
	for i := 0; i < int(nLost) && md.err == nil; i++ {
		world.Lost = append(world.Lost, md.str("meta lost name"))
	}
	nCat := md.u32("meta catalog count")
	nNet := md.u32("meta network count")
	if err := md.done("meta section"); err != nil {
		return nil, err
	}
	if nCat > maxSections || nNet > maxSections {
		return nil, fmt.Errorf("%w: implausible meta counts (catalogs=%d networks=%d)", ErrFormat, nCat, nNet)
	}

	world.Catalogs = make([]Catalog, nCat)
	world.Networks = make([]NetworkState, nNet)

	var jobs []func() error
	next := 1
	pop := func(kind uint32, what string) (*section, error) {
		if next >= len(secs) {
			return nil, fmt.Errorf("%w: missing %s section", ErrFormat, what)
		}
		s := &secs[next]
		if s.kind != kind {
			return nil, fmt.Errorf("%w: section %d is kind %d, want %s", ErrFormat, next, s.kind, what)
		}
		next++
		return s, nil
	}

	for ci := range world.Catalogs {
		s, err := pop(kindCatalog, "catalog")
		if err != nil {
			return nil, err
		}
		cd := &dec{b: s.payload}
		c := &world.Catalogs[ci]
		c.Name = cd.str("catalog name")
		c.Bandwidth = cd.f64("catalog bandwidth")
		c.Events = int(cd.u64("catalog events"))
		var b [4]float64
		for bi := range b {
			b[bi] = cd.f64("catalog grid bounds")
		}
		rows := cd.u32("catalog grid rows")
		cols := cd.u32("catalog grid cols")
		nValues := cd.u64("catalog value count")
		nParts := cd.u32("catalog part count")
		if err := cd.done("catalog section"); err != nil {
			return nil, err
		}
		grid := geo.Grid{
			Bounds: geo.Bounds{MinLat: b[0], MinLon: b[1], MaxLat: b[2], MaxLon: b[3]},
			Rows:   int(rows),
			Cols:   int(cols),
		}
		if rows == 0 || cols == 0 || uint64(grid.Size()) != nValues {
			return nil, fmt.Errorf("%w: catalog %q declares %d values for a %dx%d grid", ErrFormat, c.Name, nValues, rows, cols)
		}
		c.Field = &kde.Field{Grid: grid, Values: make([]float64, nValues)}

		wantStart := uint64(0)
		for pi := 0; pi < int(nParts); pi++ {
			ps, err := pop(kindFieldPart, "field part")
			if err != nil {
				return nil, err
			}
			pd := &dec{b: ps.payload}
			gotCat := pd.u32("part catalog index")
			gotPart := pd.u32("part index")
			start := pd.u64("part start")
			count := pd.u64("part count")
			if pd.err != nil {
				return nil, pd.err
			}
			if gotCat != uint32(ci) || gotPart != uint32(pi) || start != wantStart ||
				count == 0 || start+count > nValues ||
				uint64(len(ps.payload)) != 24+8*count {
				return nil, fmt.Errorf("%w: catalog %q part %d misdescribes its range (start=%d count=%d of %d values)",
					ErrFormat, c.Name, pi, start, count, nValues)
			}
			wantStart = start + count
			dst := c.Field.Values[start : start+count]
			raw := ps.payload[24:]
			jobs = append(jobs, func() error {
				for i := range dst {
					dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
				}
				return nil
			})
		}
		if wantStart != nValues {
			return nil, fmt.Errorf("%w: catalog %q parts cover %d of %d values", ErrFormat, c.Name, wantStart, nValues)
		}
	}

	for ni := range world.Networks {
		s, err := pop(kindNetwork, "network")
		if err != nil {
			return nil, err
		}
		payload := s.payload
		dst := &world.Networks[ni]
		jobs = append(jobs, func() error {
			d := &dec{b: payload}
			dst.Name = d.str("network name")
			copy(dst.TopoHash[:], d.take(32, "network topo hash"))
			dst.PoPs = int(d.u32("network pop count"))
			dst.Hist = d.floats("network hist")
			dst.Fractions = d.floats("network fractions")
			if err := d.done("network section"); err != nil {
				return err
			}
			if len(dst.Hist) != dst.PoPs || len(dst.Fractions) != dst.PoPs {
				return fmt.Errorf("%w: network %q vectors (%d/%d) not aligned with %d PoPs",
					ErrFormat, dst.Name, len(dst.Hist), len(dst.Fractions), dst.PoPs)
			}
			return nil
		})
	}

	if next != len(secs) {
		return nil, fmt.Errorf("%w: %d unexpected extra sections", ErrFormat, len(secs)-next)
	}

	errs := parallel.Map(len(jobs), workers, func(i int) error { return jobs[i]() })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return world, nil
}

// Load reads and decodes a snapshot file, fanning checksum verification and
// bulk decoding over opt.Workers, and records the load on the metrics
// registry, trace, log, and health timeline. On any failure the caller is
// expected to fall back to a full fit; Load itself only reports.
func Load(path string, opt LoadOptions) (*World, *LoadStats, error) {
	start := time.Now()
	span := opt.Trace.Child("snapshot-load")
	defer span.End()
	span.SetAttr("path", path)

	data, err := os.ReadFile(path)
	if err != nil {
		opt.Metrics.Counter("snapshot.load_failures").Inc()
		opt.Health.Degrade("snapshot", err, "world snapshot %s unreadable", path)
		return nil, nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	world, stats, err := Decode(data, opt)
	if err != nil {
		opt.Metrics.Counter("snapshot.load_failures").Inc()
		opt.Health.Degrade("snapshot", err, "world snapshot %s rejected", path)
		if opt.Logger != nil {
			opt.Logger.Warn("world snapshot rejected", "path", path, "err", err)
		}
		return nil, nil, err
	}
	stats.Duration = time.Since(start)

	ms := float64(stats.Duration.Microseconds()) / 1e3
	opt.Metrics.Counter("snapshot.loads").Inc()
	opt.Metrics.Counter("snapshot.sections_total").Add(int64(stats.Sections))
	opt.Metrics.Gauge("snapshot.load_ms").Set(ms)
	span.SetAttr("digest", stats.Digest)
	span.SetAttr("sections", stats.Sections)
	span.SetAttr("bytes", stats.Bytes)
	opt.Health.Record("snapshot", "loaded world %s (%d sections, %d bytes, %d catalogs, %d networks) in %.1f ms",
		stats.Digest[:12], stats.Sections, stats.Bytes, len(world.Catalogs), len(world.Networks), ms)
	if opt.Logger != nil {
		opt.Logger.Info("world snapshot loaded",
			"path", path, "digest", stats.Digest, "sections", stats.Sections,
			"bytes", stats.Bytes, "ms", ms)
	}
	return world, stats, nil
}
