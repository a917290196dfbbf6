package graph

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store keeps the last N graph snapshots ("generations") in one directory,
// mirroring how the paper's weekly IYP dumps accumulate: every Save writes
// a new gen-NNNNNN.snapshot durably and prunes the oldest beyond the
// retention count, and Open loads the newest generation that still passes
// verification — a torn or bit-flipped latest dump costs one generation,
// not the database.
//
// Layout:
//
//	dir/MANIFEST            text manifest, one "gen ..." line per generation
//	dir/gen-000001.snapshot snapshot files
//	dir/*.tmp-*             in-flight writes; ignored and garbage-collected
//
// Every reader — Open, a replica follower, an AS-OF history load — goes
// through Load, which reads a generation's file once, checks the bytes
// against the size and whole-file CRC32C the manifest records, and decodes
// them. The decoder verifies the snapshot's internal checksums regardless,
// so a stale or missing manifest (e.g. a crash between the snapshot rename
// and the manifest rename) only loses the record check and its typed
// errors, never correctness.
type Store struct {
	dir  string
	keep int

	// hookMu guards onSave and protect. Hooks are an in-process
	// convenience: a follower embedded in the builder's process gets woken
	// without polling; cross-process followers poll Head/Generations.
	hookMu  sync.Mutex
	onSave  []func(Generation)
	protect []func(seq uint64) bool

	// wrapFile is a test hook wrapping the writer a generation's snapshot
	// is saved through.
	wrapFile func(io.Writer) io.Writer
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// Keep is how many generations to retain (0 = 3).
	Keep int
}

// Generation describes one stored snapshot.
type Generation struct {
	Seq   uint64
	Path  string
	Size  int64
	CRC   uint32
	Nodes int
	Rels  int
	// manifested records whether the generation came from the manifest
	// (with a verifiable size+CRC) or a directory scan.
	manifested bool
}

// SkippedGeneration records a generation Open had to pass over, and why.
type SkippedGeneration struct {
	Seq    uint64
	Path   string
	Reason string
}

// OpenReport describes what Open loaded and what it skipped.
type OpenReport struct {
	Loaded  Generation
	Skipped []SkippedGeneration
}

// ErrNoGenerations is returned by Open when the store holds no loadable
// snapshot at all.
var ErrNoGenerations = errors.New("graph: store has no loadable generation")

// Typed verification failures, so a follower can classify why a generation
// was rejected (torn publish vs bit rot vs pruned-under-us) instead of
// pattern-matching reason strings. Checksum and structural damage are the
// existing ErrCorrupt.
var (
	// ErrGenMissing: the snapshot file is gone — pruned by the builder
	// between listing and loading, or never renamed into place.
	ErrGenMissing = errors.New("graph: generation file missing")
	// ErrGenTruncated: the file is shorter than its manifest record — a
	// torn write or partial copy still in flight.
	ErrGenTruncated = errors.New("graph: generation file truncated")
)

// Manifested reports whether the generation came from the manifest (with a
// verifiable size and CRC) rather than an orphan directory scan.
func (g Generation) Manifested() bool { return g.manifested }

const (
	storeManifest       = "MANIFEST"
	storeManifestHeader = "iyp-store v1"
)

// OpenStore opens (creating if needed) a generation store rooted at dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keep := opts.Keep
	if keep <= 0 {
		keep = 3
	}
	return &Store{dir: dir, keep: keep}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func genFileName(seq uint64) string { return fmt.Sprintf("gen-%06d.snapshot", seq) }

// parseGenSeq extracts NNNNNN from gen-NNNNNN.snapshot (ok=false otherwise).
func parseGenSeq(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "gen-%d.snapshot", &seq); n != 1 || err != nil {
		return 0, false
	}
	if name != genFileName(seq) {
		return 0, false
	}
	return seq, true
}

// readManifest parses the manifest, tolerating a missing file and ignoring
// malformed lines (a torn append truncates to the good prefix).
func (st *Store) readManifest() []Generation {
	data, err := os.ReadFile(filepath.Join(st.dir, storeManifest))
	if err != nil {
		return nil
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != storeManifestHeader {
		return nil
	}
	var gens []Generation
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var g Generation
		var file string
		var crc uint32
		if n, err := fmt.Sscanf(line, "gen %d %s %d %08x %d %d",
			&g.Seq, &file, &g.Size, &crc, &g.Nodes, &g.Rels); n != 6 || err != nil {
			continue
		}
		g.CRC = crc
		g.Path = filepath.Join(st.dir, file)
		g.manifested = true
		gens = append(gens, g)
	}
	return gens
}

// writeManifest durably replaces the manifest with the given generations.
func (st *Store) writeManifest(gens []Generation) error {
	var sb strings.Builder
	sb.WriteString(storeManifestHeader + "\n")
	for _, g := range gens {
		fmt.Fprintf(&sb, "gen %d %s %d %08x %d %d\n",
			g.Seq, filepath.Base(g.Path), g.Size, g.CRC, g.Nodes, g.Rels)
	}
	return WriteFileAtomic(filepath.Join(st.dir, storeManifest), func(w io.Writer) error {
		_, err := io.WriteString(w, sb.String())
		return err
	})
}

// Generations lists the store's generations, newest first: the manifest's
// entries plus any complete-but-unmanifested snapshot files found on disk
// (a crash between the snapshot rename and the manifest update leaves one).
//
// Listing is safe while another process (or goroutine) is mid-Publish on
// the same directory: the manifest and every snapshot land via atomic
// rename, so each read sees a complete old or new file, never a torn one.
// The manifest read and the directory scan are two separate snapshots of a
// moving directory, though, so the combined view can be transiently stale —
// a just-published generation may appear as an orphan before its manifest
// entry is visible, and a just-pruned file may still be listed. Callers
// must treat every entry as a candidate to verify (Load does), not as a
// promise the file is still there.
func (st *Store) Generations() ([]Generation, error) {
	gens := st.readManifest()
	seen := make(map[uint64]bool, len(gens))
	for _, g := range gens {
		seen[g.Seq] = true
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		seq, ok := parseGenSeq(e.Name())
		if !ok || seen[seq] {
			continue
		}
		g := Generation{Seq: seq, Path: filepath.Join(st.dir, e.Name())}
		info, err := e.Info()
		if err != nil {
			// The file vanished between the directory read and the stat: a
			// concurrent Save pruned it. It was never manifested in the view
			// we read, so it is not a generation we can offer.
			continue
		}
		g.Size = info.Size()
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq > gens[j].Seq })
	return gens, nil
}

// Head returns the newest generation currently visible in the store (ok is
// false when the store is empty). This is the follower's poll target: cheap
// enough to call every few hundred milliseconds, and safe against a
// concurrent Publish — see Generations.
func (st *Store) Head() (Generation, bool, error) {
	gens, err := st.Generations()
	if err != nil || len(gens) == 0 {
		return Generation{}, false, err
	}
	return gens[0], true, nil
}

// MTime returns the manifest's modification time (ok=false when the store
// has no manifest yet). Every Save atomically replaces the manifest, so the
// mtime is a one-stat change signal: a cross-process follower can watch it
// at a fast cadence and run a full listing only when it moves — the
// cheap half of builder→replica push notification.
func (st *Store) MTime() (time.Time, bool) {
	info, err := os.Stat(filepath.Join(st.dir, storeManifest))
	if err != nil {
		return time.Time{}, false
	}
	return info.ModTime(), true
}

// Protect registers a predicate consulted before Save prunes a generation
// beyond the retention count: any generation whose sequence some registered
// predicate reports true for is kept on disk (and in the manifest, so its
// CRC record survives) until a later Save finds it unprotected. AS-OF
// history caches use this so pruning never deletes a snapshot that a
// pinned or materialized historical reader still depends on.
func (st *Store) Protect(fn func(seq uint64) bool) {
	st.hookMu.Lock()
	st.protect = append(st.protect, fn)
	st.hookMu.Unlock()
}

// protected reports whether any registered predicate claims seq.
func (st *Store) protected(seq uint64) bool {
	st.hookMu.Lock()
	fns := st.protect
	st.hookMu.Unlock()
	for _, fn := range fns {
		if fn(seq) {
			return true
		}
	}
	return false
}

// OnSave registers fn to run after every successful Save in this process,
// with the generation just published. Cross-process followers cannot use
// this (they poll Head); an embedded follower uses it to reload without
// waiting out its poll interval. fn must not call Save.
func (st *Store) OnSave(fn func(Generation)) {
	st.hookMu.Lock()
	st.onSave = append(st.onSave, fn)
	st.hookMu.Unlock()
}

// Save writes g as the next generation: the snapshot through
// WriteFileAtomic (CRC and size computed in-flight), then a durable
// manifest update and pruning down to the retention count. The previous
// generations are untouched until the new one is fully durable.
func (st *Store) Save(g *Graph) (Generation, error) {
	gens, err := st.Generations()
	if err != nil {
		return Generation{}, err
	}
	var seq uint64 = 1
	if len(gens) > 0 {
		seq = gens[0].Seq + 1
	}
	name := genFileName(seq)
	path := filepath.Join(st.dir, name)

	h := crc32.New(castagnoli)
	var size int64
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		if st.wrapFile != nil {
			w = st.wrapFile(w)
		}
		cw := &countWriter{w: io.MultiWriter(w, h)}
		err := g.Save(cw)
		size = cw.n
		return err
	}); err != nil {
		return Generation{}, err
	}

	st.gcTempFiles()

	gen := Generation{
		Seq:        seq,
		Path:       path,
		Size:       size,
		CRC:        h.Sum32(),
		Nodes:      g.NumNodes(),
		Rels:       g.NumRels(),
		manifested: true,
	}
	all := append([]Generation{gen}, gens...)
	keepGens := all
	var pruned []Generation
	if len(all) > st.keep {
		// Generations beyond the retention count are pruned unless a
		// Protect predicate claims them (a historical reader has the
		// snapshot pinned or materialized); protected ones stay in the
		// manifest so their CRC records survive until protection drains.
		keepGens = all[:st.keep:st.keep]
		for _, p := range all[st.keep:] {
			if st.protected(p.Seq) {
				keepGens = append(keepGens, p)
			} else {
				pruned = append(pruned, p)
			}
		}
	}
	// Manifest first, then prune: the manifest never references a deleted
	// file, and a crash in between only leaves orphans a later Save removes.
	if err := st.writeManifest(keepGens); err != nil {
		return Generation{}, err
	}
	for _, p := range pruned {
		os.Remove(p.Path)
	}
	st.hookMu.Lock()
	hooks := append([]func(Generation){}, st.onSave...)
	st.hookMu.Unlock()
	for _, fn := range hooks {
		fn(gen)
	}
	return gen, nil
}

// gcTempFiles removes leftover in-flight files from crashed writers.
func (st *Store) gcTempFiles() {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(st.dir, e.Name()))
		}
	}
}

// Open loads the newest generation that passes verification, walking
// backwards over older generations when the latest is torn, bit-flipped, or
// missing. The report says which generation was loaded and which were
// skipped (and why); an error is returned only when no generation loads.
//
// A fast concurrent publisher can lap a reader: every generation in one
// listing may be pruned before Open reaches it. When all candidates
// vanished that way, Open re-lists (bounded) — by definition newer
// generations were published meanwhile.
func (st *Store) Open() (*Graph, OpenReport, error) {
	const relistAttempts = 3
	var report OpenReport
	for attempt := 1; ; attempt++ {
		report = OpenReport{}
		gens, err := st.Generations()
		if err != nil {
			return nil, report, err
		}
		if len(gens) == 0 {
			return nil, report, ErrNoGenerations
		}
		allVanished := true
		for _, gen := range gens {
			g, _, err := st.Load(gen, nil)
			if err != nil {
				report.Skipped = append(report.Skipped, SkippedGeneration{Seq: gen.Seq, Path: gen.Path, Reason: err.Error()})
				allVanished = allVanished && errors.Is(err, ErrGenMissing)
				continue
			}
			gen.Nodes, gen.Rels = g.NumNodes(), g.NumRels()
			report.Loaded = gen
			return g, report, nil
		}
		if !allVanished || attempt >= relistAttempts {
			return nil, report, fmt.Errorf("%w (%d generation(s) failed verification)", ErrNoGenerations, len(report.Skipped))
		}
	}
}

// Load materializes one generation in a single read of its file: the bytes
// are checked against the generation's manifest record and then decoded,
// the decoder verifying every section's checksum and the whole-file CRC
// before it trusts a byte. dict seeds the loaded graph's dictionary (nil
// starts fresh). Failures are typed as for VerifyGen; a generation that
// passes the record check but not the decoder yields the decoder's error
// (ErrCorrupt for damage).
func (st *Store) Load(gen Generation, dict *Interner) (*Graph, LoadReport, error) {
	data, err := readGen(gen)
	if err != nil {
		return nil, LoadReport{}, err
	}
	return loadBytes(data, LoadOptions{Dict: dict})
}

// VerifyGen checks a generation against its manifest record without
// decoding it, returning a typed error a follower can classify:
// ErrGenMissing when the file is gone, ErrGenTruncated when it is shorter
// than the manifest says, ErrCorrupt on a checksum mismatch (or an
// over-long file — garbage appended past a valid snapshot is damage, not
// slack). A nil return means "try loading it": the decoder still verifies
// the snapshot's own checksums, so an unmanifested orphan (no recorded
// size/CRC) passes here and is judged by the decoder.
func (st *Store) VerifyGen(gen Generation) error {
	_, err := readGen(gen)
	return err
}

// readGen reads a generation's file and checks it against the manifest
// record — the one comparison Load and VerifyGen share.
func readGen(gen Generation) ([]byte, error) {
	data, err := os.ReadFile(gen.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrGenMissing, gen.Path)
	}
	if err != nil || !gen.manifested {
		return data, err // an orphan has no recorded size/CRC to compare
	}
	switch size := int64(len(data)); {
	case size < gen.Size:
		return nil, fmt.Errorf("%w: manifest records %d bytes, file has %d", ErrGenTruncated, gen.Size, size)
	case size > gen.Size:
		return nil, corruptf("file is %d bytes, manifest records %d", size, gen.Size)
	}
	if sum := crc32.Checksum(data, castagnoli); sum != gen.CRC {
		return nil, corruptf("checksum mismatch (manifest %08x, file %08x)", gen.CRC, sum)
	}
	return data, nil
}

// countWriter counts bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
