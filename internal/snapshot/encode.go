package snapshot

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"riskroute/internal/parallel"
)

// enc is a little-endian append-only byte builder; every payload is built
// through it so encode and decode agree on one serialization of each type.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}

func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) floats(v []float64) {
	e.u64(uint64(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}

// fieldParts returns the half-open value ranges one field is split into:
// fixed-size runs of maxPartValues so every bake of the same world shards
// identically (byte determinism) and loads verify in parallel.
func fieldParts(n int) [][2]int {
	var parts [][2]int
	for start := 0; start < n; start += maxPartValues {
		end := start + maxPartValues
		if end > n {
			end = n
		}
		parts = append(parts, [2]int{start, end})
	}
	if len(parts) == 0 {
		parts = append(parts, [2]int{0, 0})
	}
	return parts
}

// Write encodes the world to w in snapshot format and returns its digest.
// The output is byte-deterministic: section order, part sharding, and every
// field's serialization are fixed functions of the world's contents.
func Write(w io.Writer, world *World) (string, error) {
	if err := world.Validate(); err != nil {
		return "", err
	}

	var sections []struct {
		kind    uint32
		payload []byte
	}
	add := func(kind uint32, payload []byte) {
		sections = append(sections, struct {
			kind    uint32
			payload []byte
		}{kind, payload})
	}

	var e enc
	e.u64(uint64(world.Blocks))
	e.f64(world.EventScale)
	e.u64(world.Seed)
	e.f64(world.Renorm)
	e.u32(uint32(len(world.Lost)))
	for _, name := range world.Lost {
		e.str(name)
	}
	e.u32(uint32(len(world.Catalogs)))
	e.u32(uint32(len(world.Networks)))
	add(kindMeta, e.b)

	for ci, c := range world.Catalogs {
		parts := fieldParts(len(c.Field.Values))
		e = enc{}
		e.str(c.Name)
		e.f64(c.Bandwidth)
		e.u64(uint64(c.Events))
		for _, b := range gridBounds(c.Field.Grid) {
			e.f64(b)
		}
		e.u32(uint32(c.Field.Grid.Rows))
		e.u32(uint32(c.Field.Grid.Cols))
		e.u64(uint64(len(c.Field.Values)))
		e.u32(uint32(len(parts)))
		add(kindCatalog, e.b)

		for pi, p := range parts {
			e = enc{make([]byte, 0, 24+8*(p[1]-p[0]))}
			e.u32(uint32(ci))
			e.u32(uint32(pi))
			e.u64(uint64(p[0]))
			e.u64(uint64(p[1] - p[0]))
			for _, v := range c.Field.Values[p[0]:p[1]] {
				e.f64(v)
			}
			add(kindFieldPart, e.b)
		}
	}

	for _, ns := range world.Networks {
		e = enc{}
		e.str(ns.Name)
		e.b = append(e.b, ns.TopoHash[:]...)
		e.u32(uint32(ns.PoPs))
		e.floats(ns.Hist)
		e.floats(ns.Fractions)
		add(kindNetwork, e.b)
	}

	header := make([]byte, headerLen)
	copy(header, magic)
	binary.LittleEndian.PutUint32(header[4:], Version)
	binary.LittleEndian.PutUint32(header[8:], uint32(len(sections)))

	// The digest covers the header plus every section's (kind, length,
	// checksum) record — the same bytes a loader walks before touching
	// payloads, so both sides derive it at negligible cost. The checksums
	// are computed in parallel, then written in section order.
	sums := parallel.Map(len(sections), 0, func(i int) [sha256.Size]byte {
		return sha256.Sum256(sections[i].payload)
	})
	root := sha256.New()
	root.Write(header)

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(header); err != nil {
		return "", fmt.Errorf("snapshot: write header: %w", err)
	}
	var sh [secHeaderLen]byte
	for i, sec := range sections {
		binary.LittleEndian.PutUint32(sh[0:], sec.kind)
		binary.LittleEndian.PutUint64(sh[4:], uint64(len(sec.payload)))
		copy(sh[12:], sums[i][:])
		root.Write(sh[:])
		if _, err := bw.Write(sh[:]); err != nil {
			return "", fmt.Errorf("snapshot: write section header: %w", err)
		}
		if _, err := bw.Write(sec.payload); err != nil {
			return "", fmt.Errorf("snapshot: write section payload: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("snapshot: flush: %w", err)
	}
	digest := hex.EncodeToString(root.Sum(nil))
	world.Digest = digest
	return digest, nil
}

// WriteFile bakes the world to path atomically (temp file + rename in the
// destination directory, the ledger's publish discipline) and returns the
// snapshot digest.
func WriteFile(path string, world *World) (string, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rrws-*")
	if err != nil {
		return "", fmt.Errorf("snapshot: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	digest, err := Write(tmp, world)
	if err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("snapshot: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("snapshot: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("snapshot: publish %s: %w", path, err)
	}
	return digest, nil
}
