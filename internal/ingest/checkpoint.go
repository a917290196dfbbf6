package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"iyp/internal/graph"
)

// Checkpoint makes builds resumable: after every successful crawler commit
// the pipeline journals the committed graph.Batch to disk (fsync'd) and
// appends a manifest record, so a crashed or cancelled build can replay the
// already-ingested datasets instead of re-fetching them. Because the
// pipeline commits in deterministic dataset order and a journal replays
// into an identical ApplyBatch call, a resumed build's final graph is
// byte-identical (as a snapshot) to an uninterrupted build's.
//
// Layout:
//
//	dir/MANIFEST          header + one "commit ..." line per journaled dataset
//	dir/j-000001.batch    batch journals (graph.WriteBatch format)
//
// The manifest header pins the build fingerprint (config + dataset set) and
// the fetch timestamp, so a checkpoint is only ever resumed into the build
// that started it. Records are appended and fsync'd one at a time; a torn
// tail invalidates only the records from the tear onward, and the journals'
// own checksums are verified again at replay.
type Checkpoint struct {
	dir         string
	fingerprint string
	fetchTime   time.Time

	mu        sync.Mutex
	manifest  *os.File // open for appending records
	committed []checkpointEntry
	disabled  bool
}

type checkpointEntry struct {
	seq     int
	dataset string
	file    string
	size    int64
	crc     uint32
}

const (
	checkpointManifest = "MANIFEST"
	checkpointHeader   = "iyp-checkpoint v1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint is returned by OpenCheckpoint when dir holds no usable
// checkpoint.
var ErrNoCheckpoint = errors.New("ingest: no checkpoint")

// CreateCheckpoint starts a fresh checkpoint in dir, discarding any
// previous contents, and pins the build fingerprint and fetch time.
func CreateCheckpoint(dir, fingerprint string, fetchTime time.Time) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Discard stale journals and manifest from a previous build.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Name() == checkpointManifest || strings.HasSuffix(e.Name(), ".batch") || strings.Contains(e.Name(), ".tmp-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	cp := &Checkpoint{dir: dir, fingerprint: fingerprint, fetchTime: fetchTime.UTC()}
	f, err := os.OpenFile(filepath.Join(dir, checkpointManifest), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(f, "%s %s %s\n", checkpointHeader, fingerprint, cp.fetchTime.Format(time.RFC3339Nano)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	cp.manifest = f
	return cp, nil
}

// OpenCheckpoint opens an existing checkpoint for resuming. It validates
// every manifest record against the journal file on disk (existence, size,
// whole-file CRC32C) and truncates at the first bad record — a torn append
// or a damaged journal costs the tail, not the checkpoint. The manifest is
// durably rewritten to the validated prefix and reopened for appending.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointManifest))
	if err != nil {
		return nil, fmt.Errorf("%w in %s: %v", ErrNoCheckpoint, dir, err)
	}
	lines := strings.Split(string(data), "\n")
	var fingerprint, stamp string
	if len(lines) == 0 {
		return nil, fmt.Errorf("%w in %s: empty manifest", ErrNoCheckpoint, dir)
	}
	if n, err := fmt.Sscanf(lines[0], checkpointHeader+" %s %s", &fingerprint, &stamp); n != 2 || err != nil {
		return nil, fmt.Errorf("%w in %s: bad manifest header", ErrNoCheckpoint, dir)
	}
	fetchTime, err := time.Parse(time.RFC3339Nano, stamp)
	if err != nil {
		return nil, fmt.Errorf("%w in %s: bad fetch time: %v", ErrNoCheckpoint, dir, err)
	}
	cp := &Checkpoint{dir: dir, fingerprint: fingerprint, fetchTime: fetchTime}
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var e checkpointEntry
		n, err := fmt.Sscanf(line, "commit %d %s %d %08x %q", &e.seq, &e.file, &e.size, &e.crc, &e.dataset)
		if n != 5 || err != nil {
			break // torn append: trust only the prefix
		}
		if e.seq != len(cp.committed)+1 {
			break
		}
		if reason := cp.verifyJournal(e); reason != "" {
			break // damaged journal: everything from here on must be re-run
		}
		cp.committed = append(cp.committed, e)
	}
	// Rewrite the manifest to the validated prefix so later appends never
	// land after a torn record, then reopen for appending.
	if err := cp.rewriteManifest(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, checkpointManifest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cp.manifest = f
	return cp, nil
}

// verifyJournal checks a journal file against its manifest record. Empty
// string = good.
func (cp *Checkpoint) verifyJournal(e checkpointEntry) string {
	path := filepath.Join(cp.dir, e.file)
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Sprintf("missing: %v", err)
	}
	if info.Size() != e.size {
		return fmt.Sprintf("size mismatch (manifest %d, file %d)", e.size, info.Size())
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	if h.Sum32() != e.crc {
		return fmt.Sprintf("checksum mismatch (manifest %08x, file %08x)", e.crc, h.Sum32())
	}
	return ""
}

// rewriteManifest durably replaces the manifest with the validated records.
func (cp *Checkpoint) rewriteManifest() error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s\n", checkpointHeader, cp.fingerprint, cp.fetchTime.Format(time.RFC3339Nano))
	for _, e := range cp.committed {
		fmt.Fprintf(&sb, "commit %d %s %d %08x %q\n", e.seq, e.file, e.size, e.crc, e.dataset)
	}
	return graph.WriteFileAtomic(filepath.Join(cp.dir, checkpointManifest), func(w io.Writer) error {
		_, err := io.WriteString(w, sb.String())
		return err
	})
}

// Fingerprint returns the build fingerprint pinned at creation.
func (cp *Checkpoint) Fingerprint() string { return cp.fingerprint }

// FetchTime returns the provenance timestamp pinned at creation; a resumed
// build must reuse it so replayed and freshly-crawled provenance agree.
func (cp *Checkpoint) FetchTime() time.Time { return cp.fetchTime }

// Datasets returns the journaled dataset names, in commit order.
func (cp *Checkpoint) Datasets() []string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]string, len(cp.committed))
	for i, e := range cp.committed {
		out[i] = e.dataset
	}
	return out
}

// ReplayedCommit describes one dataset restored from the checkpoint.
type ReplayedCommit struct {
	Dataset      string
	NodesCreated int
	LinksCreated int
}

// Replay applies the journaled batches to g in their recorded commit order,
// reproducing exactly the graph state the interrupted build had reached
// after those commits. Journals were already CRC-verified at open; a decode
// failure here (disk went bad in between) aborts the replay.
func (cp *Checkpoint) Replay(g *graph.Graph) ([]ReplayedCommit, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]ReplayedCommit, 0, len(cp.committed))
	for _, e := range cp.committed {
		f, err := os.Open(filepath.Join(cp.dir, e.file))
		if err != nil {
			return nil, fmt.Errorf("ingest: checkpoint replay %s: %w", e.dataset, err)
		}
		b, err := graph.ReadBatch(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("ingest: checkpoint replay %s: %w", e.dataset, err)
		}
		res, err := g.ApplyBatch(b)
		if err != nil {
			return nil, fmt.Errorf("ingest: checkpoint replay %s: %w", e.dataset, err)
		}
		out = append(out, ReplayedCommit{Dataset: e.dataset, NodesCreated: res.NodesCreated, LinksCreated: res.RelsCreated})
	}
	return out, nil
}

// Record durably journals a just-committed session: the staged batch goes
// through graph.WriteFileAtomic, and only then is the manifest record
// appended and fsync'd — the record never exists without its journal. A
// recording failure disables further checkpointing (the build carries on;
// the affected datasets are simply re-crawled on resume) and is reported
// once.
func (cp *Checkpoint) Record(dataset string, s *Session) error {
	if cp == nil {
		return nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.disabled {
		return nil
	}
	if err := cp.record(dataset, s.batch); err != nil {
		cp.disabled = true
		return fmt.Errorf("ingest: checkpoint %s: %w (checkpointing disabled)", dataset, err)
	}
	return nil
}

func (cp *Checkpoint) record(dataset string, b *graph.Batch) error {
	seq := len(cp.committed) + 1
	name := fmt.Sprintf("j-%06d.batch", seq)
	// A journal is small next to the graph it feeds and WriteBatch assembles
	// it in memory anyway, so its size and checksum come from the bytes.
	var journal bytes.Buffer
	if err := graph.WriteBatch(&journal, b); err != nil {
		return err
	}
	size, crc := int64(journal.Len()), crc32.Checksum(journal.Bytes(), castagnoli)
	if err := graph.WriteFileAtomic(filepath.Join(cp.dir, name), func(w io.Writer) error {
		_, err := w.Write(journal.Bytes())
		return err
	}); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(cp.manifest, "commit %d %s %d %08x %q\n", seq, name, size, crc, dataset); err != nil {
		return err
	}
	if err := cp.manifest.Sync(); err != nil {
		return err
	}
	cp.committed = append(cp.committed, checkpointEntry{seq: seq, dataset: dataset, file: name, size: size, crc: crc})
	return nil
}

// Close releases the manifest handle. Recorded state stays on disk.
func (cp *Checkpoint) Close() error {
	if cp == nil || cp.manifest == nil {
		return nil
	}
	err := cp.manifest.Close()
	cp.manifest = nil
	return err
}

// Remove deletes the checkpoint directory — called after the final snapshot
// is durably saved, when the journals have served their purpose.
func (cp *Checkpoint) Remove() error {
	cp.Close()
	return os.RemoveAll(cp.dir)
}
