package replica

// FaultStore is the deterministic fault-injection harness for the replica
// tier: it publishes generations into a graph.Store directory the way a
// misbehaving builder would — truncated and bit-flipped snapshots, lying
// manifests that vouch for damaged bytes, torn manifest tails, and crashes
// between the snapshot rename and the manifest update. Every fault is
// driven by a seeded RNG, so a failing failover run replays exactly.
//
// Faithfulness matters: a follower may poll the directory at any instant,
// so a damaged generation must never be visible intact, even transiently —
// real crashes leave damaged bytes from the first moment the file exists.
// Damage is therefore injected in an invisible staging file and published
// with the same atomic renames the honest builder uses.
//
// Only the publish side is injected: every follower read goes through
// graph.Store.Load, and a read that fails outright (a directory where the
// snapshot was, a permission error) is classified as an io_error by the
// same path that classifies damage.

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"iyp/internal/graph"
)

// FaultStore publishes (possibly damaged) generations into a directory a
// Follower is watching. Methods are serialized; the builder side is
// single-writer by contract, same as graph.Store.
type FaultStore struct {
	mu  sync.Mutex
	dir string
	st  *graph.Store
	rng *rand.Rand
}

// NewFaultStore opens (creating if needed) the store at dir with a seeded
// fault RNG.
func NewFaultStore(dir string, seed int64) (*FaultStore, error) {
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		return nil, err
	}
	return &FaultStore{dir: dir, st: st, rng: rand.New(rand.NewSource(seed))}, nil
}

// Store returns the underlying (honest) generation store.
func (fs *FaultStore) Store() *graph.Store { return fs.st }

// PublishGood publishes g intact — the well-behaved builder.
func (fs *FaultStore) PublishGood(g *graph.Graph) (graph.Generation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.st.Save(g)
}

// staged is a snapshot written to an invisible temp file, with the size
// and CRC of the intact bytes.
type staged struct {
	tmp   string
	size  int64
	crc   uint32
	nodes int
	rels  int
}

// stage serializes g into a temp file the store's directory scan ignores.
// The ".tmp-" infix means a leftover from a failed publish is collected by
// the store's own temp GC.
func (fs *FaultStore) stage(g *graph.Graph) (staged, error) {
	f, err := os.CreateTemp(fs.dir, "stage.tmp-*")
	if err != nil {
		return staged{}, err
	}
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	cw := &countingWriter{f: f, h: h}
	if err := g.Save(cw); err != nil {
		f.Close()
		os.Remove(f.Name())
		return staged{}, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return staged{}, err
	}
	return staged{tmp: f.Name(), size: cw.n, crc: h.Sum32(), nodes: g.NumNodes(), rels: g.NumRels()}, nil
}

type countingWriter struct {
	f *os.File
	h interface{ Write([]byte) (int, error) }
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if _, err := cw.h.Write(p); err != nil {
		return 0, err
	}
	n, err := cw.f.Write(p)
	cw.n += int64(n)
	return n, err
}

// nextSeq is the seq the next publish will take: newest visible + 1.
func (fs *FaultStore) nextSeq() uint64 {
	head, ok, err := fs.st.Head()
	if err != nil || !ok {
		return 1
	}
	return head.Seq + 1
}

// install renames the staged (possibly damaged) file into place as seq's
// snapshot. The rename is atomic: the generation appears damaged from the
// first instant it exists, exactly like a real torn write.
func (fs *FaultStore) install(s staged, seq uint64) (string, error) {
	path := filepath.Join(fs.dir, fmt.Sprintf("gen-%06d.snapshot", seq))
	return path, os.Rename(s.tmp, path)
}

// manifestEntry formats one manifest line for seq with the given size/CRC.
func manifestEntry(seq uint64, path string, size int64, crc uint32, nodes, rels int) string {
	return fmt.Sprintf("gen %d %s %d %08x %d %d", seq, filepath.Base(path), size, crc, nodes, rels)
}

// existingEntries returns the manifest's current gen lines (no header).
func (fs *FaultStore) existingEntries() []string {
	raw, err := os.ReadFile(filepath.Join(fs.dir, "MANIFEST"))
	if err != nil {
		return nil
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var out []string
	for _, line := range lines {
		if strings.HasPrefix(line, "gen ") {
			out = append(out, line)
		}
	}
	return out
}

// writeManifest atomically replaces the manifest with the given content.
func (fs *FaultStore) writeManifest(content string) error {
	f, err := os.CreateTemp(fs.dir, "MANIFEST.tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.WriteString(content); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(fs.dir, "MANIFEST"))
}

// publishEntry prepends entry (the newest generation) to the manifest.
func (fs *FaultStore) publishEntry(entry string) error {
	lines := append([]string{entry}, fs.existingEntries()...)
	return fs.writeManifest("iyp-store v1\n" + strings.Join(lines, "\n") + "\n")
}

// PublishBitFlip publishes g with one random bit flipped somewhere in the
// snapshot. With lying=false the manifest records the intact size/CRC (the
// builder wrote the manifest for what it meant to publish), so the CRC
// pre-check catches the damage; with lying=true the manifest vouches for
// the damaged bytes, so only the snapshot's internal checksums (the
// loader) can catch it.
func (fs *FaultStore) PublishBitFlip(g *graph.Graph, lying bool) (graph.Generation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.stage(g)
	if err != nil {
		return graph.Generation{}, err
	}
	data, err := os.ReadFile(s.tmp)
	if err != nil {
		return graph.Generation{}, err
	}
	if len(data) == 0 {
		return graph.Generation{}, fmt.Errorf("faultstore: empty staged snapshot")
	}
	i := fs.rng.Intn(len(data))
	data[i] ^= 1 << uint(fs.rng.Intn(8))
	if err := os.WriteFile(s.tmp, data, 0o644); err != nil {
		return graph.Generation{}, err
	}
	size, crc := s.size, s.crc
	if lying {
		size = int64(len(data))
		crc = crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	}
	seq := fs.nextSeq()
	path, err := fs.install(s, seq)
	if err != nil {
		return graph.Generation{}, err
	}
	gen := graph.Generation{Seq: seq, Path: path, Size: size, CRC: crc, Nodes: s.nodes, Rels: s.rels}
	return gen, fs.publishEntry(manifestEntry(seq, path, size, crc, s.nodes, s.rels))
}

// PublishTruncated publishes g with the snapshot cut to a random fraction
// of its length — the torn-write shape. With lying=true the manifest is
// written for the truncated bytes, pushing detection down to the loader.
func (fs *FaultStore) PublishTruncated(g *graph.Graph, lying bool) (graph.Generation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.stage(g)
	if err != nil {
		return graph.Generation{}, err
	}
	// Keep at least one byte and lose at least one.
	n := 1 + fs.rng.Int63n(s.size-1)
	if err := os.Truncate(s.tmp, n); err != nil {
		return graph.Generation{}, err
	}
	size, crc := s.size, s.crc
	if lying {
		data, err := os.ReadFile(s.tmp)
		if err != nil {
			return graph.Generation{}, err
		}
		size = int64(len(data))
		crc = crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	}
	seq := fs.nextSeq()
	path, err := fs.install(s, seq)
	if err != nil {
		return graph.Generation{}, err
	}
	gen := graph.Generation{Seq: seq, Path: path, Size: size, CRC: crc, Nodes: s.nodes, Rels: s.rels}
	return gen, fs.publishEntry(manifestEntry(seq, path, size, crc, s.nodes, s.rels))
}

// PublishTornManifest publishes g's snapshot intact but tears the manifest
// inside the new entry — the torn-manifest-write shape where only the
// header and a partial first line reached disk, losing every entry's
// record. The snapshots themselves are fine, so a follower's orphan scan
// can still find and serve them.
func (fs *FaultStore) PublishTornManifest(g *graph.Graph) (graph.Generation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.stage(g)
	if err != nil {
		return graph.Generation{}, err
	}
	seq := fs.nextSeq()
	path, err := fs.install(s, seq)
	if err != nil {
		return graph.Generation{}, err
	}
	entry := manifestEntry(seq, path, s.size, s.crc, s.nodes, s.rels)
	// Cut strictly inside the entry line, at or before the last field's
	// separator: the torn line must always lose a whole field, or a cut in
	// the middle of the trailing digits would parse as a complete (wrong)
	// entry instead of being dropped.
	lastSpace := strings.LastIndexByte(entry, ' ')
	cut := 4 + fs.rng.Intn(lastSpace-4+1)
	gen := graph.Generation{Seq: seq, Path: path, Size: s.size, CRC: s.crc, Nodes: s.nodes, Rels: s.rels}
	return gen, fs.writeManifest("iyp-store v1\n" + entry[:cut])
}

// PublishOrphan publishes g's snapshot without touching the manifest — the
// crash between the snapshot rename and the manifest rename. The
// generation exists only as an unmanifested file.
func (fs *FaultStore) PublishOrphan(g *graph.Graph) (graph.Generation, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.stage(g)
	if err != nil {
		return graph.Generation{}, err
	}
	seq := fs.nextSeq()
	path, err := fs.install(s, seq)
	if err != nil {
		return graph.Generation{}, err
	}
	return graph.Generation{Seq: seq, Path: path, Size: s.size, CRC: s.crc, Nodes: s.nodes, Rels: s.rels}, nil
}
