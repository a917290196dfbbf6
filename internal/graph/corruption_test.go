package graph

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// corpusGraph is the deterministic graph behind the corruption sweeps:
// small enough that per-byte sweeps stay fast, rich enough to exercise
// every section (multi-label nodes, tombstones, every value kind, two
// indexes).
func corpusGraph() *Graph {
	return fixtureGraph()
}

func v2Bytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := corpusGraph().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustFailLoad asserts Load rejects the input without panicking and without
// allocating beyond what the input can plausibly back.
func mustFailLoad(t *testing.T, data []byte, what string) {
	t.Helper()
	g, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Load accepted corrupt input (%d nodes)", what, g.NumNodes())
	}
}

func TestLoadV2TruncationSweep(t *testing.T) {
	data := v2Bytes(t)
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for i := 0; i < len(data); i++ {
		_, err := Load(bytes.NewReader(data[:i]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", i, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error not ErrCorrupt: %v", i, err)
		}
	}
}

func TestLoadV2BitFlipSweep(t *testing.T) {
	data := v2Bytes(t)
	for i := 0; i < len(data); i++ {
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 1 << (i % 8)
		mustFailLoad(t, flipped, "bit flip")
	}
}

// repatch recomputes the v2 total CRC after a mutation, so the test reaches
// the per-section defenses behind the whole-file checksum.
func repatch(data []byte, mutate func([]byte)) []byte {
	out := append([]byte(nil), data...)
	mutate(out)
	crcOff := len(out) - len(snapshotEndMagic) - 4
	binary.LittleEndian.PutUint32(out[crcOff:], crc32.Checksum(out[:crcOff], castagnoli))
	return out
}

func TestLoadV2LyingSectionHeaders(t *testing.T) {
	data := v2Bytes(t)
	// First section header sits right after magic+version: id u8 at 5,
	// crc u32 at 6, clen u64 at 10, ulen u64 at 18.
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"huge compressed length", func(b []byte) { binary.LittleEndian.PutUint64(b[10:], 1<<60) }},
		{"huge uncompressed length", func(b []byte) { binary.LittleEndian.PutUint64(b[18:], 1<<60) }},
		{"undersized uncompressed length", func(b []byte) { binary.LittleEndian.PutUint64(b[18:], 1) }},
		{"wrong section id", func(b []byte) { b[5] = secRels }},
		{"zeroed section crc", func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := repatch(data, tc.mutate)
			g, err := Load(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("accepted (%d nodes)", g.NumNodes())
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not ErrCorrupt: %v", err)
			}
		})
	}
}

func TestLoadV2LyingTrailerCounts(t *testing.T) {
	data := v2Bytes(t)
	trailerOff := len(data) - trailerSize
	bad := repatch(data, func(b []byte) {
		binary.LittleEndian.PutUint64(b[trailerOff+1:], 9999) // node count
	})
	if _, err := Load(bytes.NewReader(bad)); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying trailer counts: %v", err)
	}
}

func TestLoadRejectsDuplicatedFile(t *testing.T) {
	// A botched rename/append that doubles the file: the end magic is still
	// in place, but the whole-file checksum exposes it.
	data := v2Bytes(t)
	mustFailLoad(t, append(append([]byte(nil), data...), data...), "duplicated file")
	// Partial duplication: the file plus a prefix of itself.
	mustFailLoad(t, append(append([]byte(nil), data...), data[:len(data)/2]...), "partial duplication")
}

// craftedSnapshot assembles a container whose checksums are all valid
// around the given section bodies (in file order), so a lying count inside
// a body reaches the section decoder instead of dying at a CRC.
func craftedSnapshot(t *testing.T, bodies ...func(e *encBuf)) []byte {
	t.Helper()
	ids := []byte{secLabels, secTypes, secDict, secNodes, secRels, secIndexes}
	out := []byte(snapshotMagic + string(rune(snapshotVersion)))
	for i, id := range ids {
		var enc encBuf
		if i < len(bodies) {
			bodies[i](&enc)
		} else {
			enc.uvarint(0)
		}
		var comp bytes.Buffer
		zw := gzip.NewWriter(&comp)
		if _, err := zw.Write(enc.b); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, id)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(comp.Bytes(), castagnoli))
		out = binary.LittleEndian.AppendUint64(out, uint64(comp.Len()))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(enc.b)))
		out = append(out, comp.Bytes()...)
	}
	out = append(out, secTrailer)
	out = append(out, make([]byte, 5*8)...) // counts: the decode fails before they are compared
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	return append(out, snapshotEndMagic...)
}

func TestLoadLyingLengthsBoundAllocation(t *testing.T) {
	none := func(e *encBuf) { e.uvarint(0) }
	oneLabel := func(e *encBuf) { e.uvarint(1); e.string("AS") }
	oneKey := func(e *encBuf) { e.uvarint(1); e.string("tags") }
	incompressible := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(incompressible)
	cases := []struct {
		name   string
		bodies []func(e *encBuf)
		patch  func([]byte) // applied through repatch, when set
	}{
		{"huge label table", []func(e *encBuf){func(e *encBuf) { e.uvarint(1 << 40) }}, nil},
		{"huge string length", []func(e *encBuf){func(e *encBuf) {
			e.uvarint(1)       // one label...
			e.uvarint(1 << 62) // ...whose name claims 4 EiB
		}}, nil},
		{"huge dictionary", []func(e *encBuf){none, none, func(e *encBuf) { e.uvarint(1 << 50) }}, nil},
		{"huge node count", []func(e *encBuf){none, none, none, func(e *encBuf) { e.uvarint(1 << 50) }}, nil},
		{"huge rel count", []func(e *encBuf){none, none, none, none, func(e *encBuf) { e.uvarint(1 << 50) }}, nil},
		{"huge prop count", []func(e *encBuf){oneLabel, none, none, func(e *encBuf) {
			e.uvarint(1)       // one node slot
			e.byte(1)          // present
			e.uvarint(0)       // no labels
			e.uvarint(1 << 40) // absurd property count
		}}, nil},
		{"huge list length", []func(e *encBuf){none, none, oneKey, func(e *encBuf) {
			e.uvarint(1)
			e.byte(1)
			e.uvarint(0)
			e.uvarint(1) // one prop
			e.uvarint(0) // key "tags"
			e.byte(byte(KindList))
			e.uvarint(1 << 40)
		}}, nil},
		{"huge index count", []func(e *encBuf){none, none, none, none, none, func(e *encBuf) { e.uvarint(1 << 50) }}, nil},
		// ~1 MiB of stored deflate whose header claims 1 GiB: inside the
		// 1032:1 plausibility bound, so only the presize cap keeps the
		// decoder from allocating the claim before the length check.
		{"lying uncompressed length", []func(e *encBuf){func(e *encBuf) { e.b = append(e.b, incompressible...) }},
			func(b []byte) { binary.LittleEndian.PutUint64(b[18:], 1<<30) }},
	}
	if _, err := Load(bytes.NewReader(craftedSnapshot(t))); err != nil {
		t.Fatalf("crafted empty snapshot rejected (the helper is wrong): %v", err)
	}
	var before, after runtime.MemStats
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftedSnapshot(t, tc.bodies...)
			if tc.patch != nil {
				data = repatch(data, tc.patch)
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			g, err := Load(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted (%d nodes)", g.NumNodes())
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not ErrCorrupt: %v", err)
			}
			// The lying prefix claims exabytes; a bounded decoder allocates
			// a tiny fraction of that while failing.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("rejecting corrupt input allocated %d MiB", grew>>20)
			}
		})
	}
}

func TestLoadGarbageHeaders(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{0x00},
		[]byte("IY"),
		[]byte("IYPG"),                // magic, nothing else
		[]byte("IYPG\x03"),            // future version
		[]byte("NOPE not a snapshot"), // wrong magic entirely
		{0x1f, 0x8b},                  // bare gzip magic
		append([]byte{0x1f, 0x8b}, bytes.Repeat([]byte{0xAA}, 64)...),
	} {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("garbage header %q accepted", data)
		}
	}
}
