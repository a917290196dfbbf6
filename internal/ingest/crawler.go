// Package ingest is the ETL framework of the reproduction: the Crawler
// interface each dataset importer implements, the Session API that gives
// crawlers canonicalizing, provenance-annotating access to the graph
// (paper §2.3), and the parallel pipeline runner with per-crawler error
// isolation.
package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"strings"

	"iyp/internal/graph"
	"iyp/internal/netutil"
	"iyp/internal/ontology"
	"iyp/internal/source"
)

// Crawler imports one dataset into the knowledge graph.
type Crawler interface {
	// Reference identifies the dataset (organization, unique name,
	// URLs). The pipeline stamps fetch time.
	Reference() ontology.Reference
	// Run fetches the dataset through the session's fetcher and writes
	// nodes and relationships via the session.
	Run(ctx context.Context, s *Session) error
}

// Session is a crawler's window into the graph. It enforces the ontology's
// canonical identifier forms, deduplicates nodes, annotates every
// relationship with the dataset's provenance, and counts writes.
//
// A Session is a staging write-buffer: node upserts and links are recorded
// against the session and applied to the graph in one atomic Commit, which
// the pipeline issues only when the crawler's Run returned nil. A crawler
// that errors, panics, or times out therefore contributes zero nodes, zero
// links, and zero provenance to the shared graph — the paper's "a broken
// feed costs one dataset, not the snapshot" promise extended to writes.
//
// Node IDs handed out by a session are staging handles, valid only for
// calls back into the same session; they resolve to graph nodes at commit.
//
// A Session is used by a single crawler goroutine; commits from parallel
// sessions are serialized by the graph.
type Session struct {
	Fetcher source.Fetcher

	g        *graph.Graph
	ref      ontology.Reference
	refProps graph.Props // ref.Props(), rendered once for every Link
	batch    *graph.Batch
	cache    map[cacheKey]graph.NodeID

	// Write counters for the pipeline report. Before Commit these count
	// staged writes; after Commit, the writes actually applied.
	committed    bool
	resolved     []graph.NodeID
	nodesCreated int
	linksCreated int
	fetches      []FetchRecord
}

// FetchRecord identifies one dataset payload read during a crawl: the path
// fetched and the SHA-256 of the bytes received. The ordered record list is
// a dataset's input fingerprint — a later build whose payloads hash the
// same at these paths would crawl to the same result, which is what lets a
// delta build skip the dataset entirely.
type FetchRecord struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
}

type cacheKey struct {
	entity string
	id     string
}

// NewSession builds a session for one crawler run. Most callers go through
// Pipeline.Run; tests use this directly.
func NewSession(g *graph.Graph, f source.Fetcher, ref ontology.Reference) *Session {
	return &Session{g: g, Fetcher: f, ref: ref, refProps: ref.Props(), batch: graph.NewBatch(), cache: map[cacheKey]graph.NodeID{}}
}

// Reference returns the provenance attached to this session's writes.
func (s *Session) Reference() ontology.Reference { return s.ref }

// Graph returns the target graph. Staged writes are invisible here until
// Commit.
func (s *Session) Graph() *graph.Graph { return s.g }

// Fetch retrieves a dataset payload through the session's fetcher and
// records its content hash (see Fetches). Payloads over
// source.DefaultMaxPayloadBytes fail with source.ErrPayloadTooLarge instead
// of ballooning the build.
func (s *Session) Fetch(ctx context.Context, path string) ([]byte, error) {
	data, err := source.ReadAll(ctx, s.Fetcher, path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	s.fetches = append(s.fetches, FetchRecord{Path: path, SHA256: hex.EncodeToString(sum[:])})
	return data, nil
}

// Fetches returns the payloads this session has read, in fetch order —
// the dataset's input fingerprint. The slice is owned by the session.
func (s *Session) Fetches() []FetchRecord { return s.fetches }

// Commit atomically applies every staged write to the graph and records the
// applied write counts. It is idempotent; the pipeline calls it once after
// a successful crawler run. Sessions that are never committed leave the
// graph untouched.
func (s *Session) Commit() error {
	if s.committed {
		return nil
	}
	res, err := s.g.ApplyBatch(s.batch)
	if err != nil {
		return fmt.Errorf("ingest: %s: commit: %w", s.ref.Name, err)
	}
	s.committed = true
	s.resolved = res.IDs
	s.nodesCreated = res.NodesCreated
	s.linksCreated = res.RelsCreated
	return nil
}

// Committed reports whether the session's writes have been applied.
func (s *Session) Committed() bool { return s.committed }

// Resolve translates a staging handle returned by Node into the graph node
// it committed to (0 before Commit or for unknown handles).
func (s *Session) Resolve(id graph.NodeID) graph.NodeID {
	if !s.committed || id == 0 || int(id) > len(s.resolved) {
		return 0
	}
	return s.resolved[id-1]
}

// Node upserts the node of the given entity with identity value id,
// canonicalizing the identifier per the ontology (paper §2.3: IP
// addresses, prefixes, ASNs and country codes are normalized so that one
// node uniquely represents one resource across all datasets).
func (s *Session) Node(entity string, id any) (graph.NodeID, error) {
	key := ontology.IdentityKey(entity)
	if key == "" {
		return 0, fmt.Errorf("ingest: entity %q has no identity property", entity)
	}
	v, err := canonicalValue(entity, id)
	if err != nil {
		return 0, err
	}
	ck := cacheKey{entity, v.String()}
	if nid, ok := s.cache[ck]; ok {
		return nid, nil
	}
	nid := s.batch.MergeNode(entity, key, v, nil, nil)
	s.nodesCreated++
	s.cache[ck] = nid
	return nid, nil
}

// NodeWithProps is Node plus extra properties set on creation (existing
// values win, as in the IYP importers).
func (s *Session) NodeWithProps(entity string, id any, props graph.Props) (graph.NodeID, error) {
	nid, err := s.Node(entity, id)
	if err != nil {
		return 0, err
	}
	if err := s.batch.MergeProps(nid, props); err != nil {
		return 0, fmt.Errorf("ingest: %s: %w", s.ref.Name, err)
	}
	return nid, nil
}

// SetNodeProp stages an unconditional property write on a session node
// (crawlers that publish per-node metrics, e.g. hegemony scores, overwrite
// rather than merge).
func (s *Session) SetNodeProp(id graph.NodeID, key string, v graph.Value) error {
	if err := s.batch.SetNodeProp(id, key, v); err != nil {
		return fmt.Errorf("ingest: %s: %w", s.ref.Name, err)
	}
	return nil
}

// AddLabel stages an extra label on a session node (e.g. marking a
// HostName as AuthoritativeNameServer).
func (s *Session) AddLabel(id graph.NodeID, label string) error {
	if err := s.batch.AddLabel(id, label); err != nil {
		return fmt.Errorf("ingest: %s: %w", s.ref.Name, err)
	}
	return nil
}

// canonicalValue normalizes an identity value for the entity.
func canonicalValue(entity string, id any) (graph.Value, error) {
	switch entity {
	case ontology.AS:
		switch x := id.(type) {
		case string:
			asn, err := netutil.ParseASN(x)
			if err != nil {
				return graph.Null(), err
			}
			return graph.Int(int64(asn)), nil
		default:
			return graph.Of(id), nil
		}
	case ontology.IP:
		sv, ok := asString(id)
		if !ok {
			return graph.Null(), fmt.Errorf("ingest: IP identity must be a string, got %T", id)
		}
		c, err := netutil.CanonicalIP(sv)
		if err != nil {
			return graph.Null(), err
		}
		return graph.String(c), nil
	case ontology.Prefix:
		sv, ok := asString(id)
		if !ok {
			return graph.Null(), fmt.Errorf("ingest: prefix identity must be a string, got %T", id)
		}
		c, err := netutil.CanonicalPrefix(sv)
		if err != nil {
			return graph.Null(), err
		}
		return graph.String(c), nil
	case ontology.Country:
		sv, ok := asString(id)
		if !ok {
			return graph.Null(), fmt.Errorf("ingest: country identity must be a string, got %T", id)
		}
		cc, ok := netutil.CanonicalCountryCode(sv)
		if !ok {
			// Keep unknown codes as-is (upper-cased); refinement fills
			// in what it can.
			cc = strings.ToUpper(strings.TrimSpace(sv))
		}
		return graph.String(cc), nil
	case ontology.HostName, ontology.DomainName, ontology.AuthoritativeNameServer:
		sv, ok := asString(id)
		if !ok {
			return graph.Null(), fmt.Errorf("ingest: hostname identity must be a string, got %T", id)
		}
		return graph.String(netutil.CanonicalHostname(sv)), nil
	case ontology.URL:
		sv, ok := asString(id)
		if !ok {
			return graph.Null(), fmt.Errorf("ingest: URL identity must be a string, got %T", id)
		}
		return graph.String(strings.TrimSpace(sv)), nil
	default:
		return graph.Of(id), nil
	}
}

func asString(id any) (string, bool) {
	switch x := id.(type) {
	case string:
		return x, true
	case graph.Value:
		return x.AsString()
	}
	return "", false
}

// Link stages a relationship annotated with the session's provenance
// reference. Extra props are merged in (reference properties win on
// collision, guaranteeing provenance integrity); the caller's map is not
// modified.
func (s *Session) Link(typ string, from, to graph.NodeID, props graph.Props) error {
	all := make(graph.Props, len(props)+len(s.refProps))
	maps.Copy(all, props)
	maps.Copy(all, s.refProps)
	if err := s.batch.AddRel(typ, from, to, all); err != nil {
		return fmt.Errorf("ingest: %s: %w", s.ref.Name, err)
	}
	s.linksCreated++
	return nil
}

// Counts returns the session's write counters: staged writes before Commit,
// applied writes after (upserts that merged into pre-existing nodes no
// longer count as created).
func (s *Session) Counts() (nodes, links int) { return s.nodesCreated, s.linksCreated }

// --- base crawler ---

// Base provides the Reference plumbing shared by all crawlers; embed it
// and set the fields.
type Base struct {
	Org     string
	Name    string
	InfoURL string
	DataURL string
}

// Reference implements the Crawler interface's provenance half.
func (b Base) Reference() ontology.Reference {
	return ontology.Reference{
		Organization: b.Org,
		Name:         b.Name,
		InfoURL:      b.InfoURL,
		DataURL:      b.DataURL,
	}
}

// --- shared helpers used by multiple crawlers ---

// NameNode upserts a Name node (shared helper, used by every AS-names
// crawler). Cross-crawler deduplication is handled by the graph's
// identity-index upsert, which is atomic.
func (s *Session) NameNode(name string) (graph.NodeID, error) {
	return s.Node(ontology.Name, name)
}

// TagNode upserts a Tag node by label.
func (s *Session) TagNode(label string) (graph.NodeID, error) {
	return s.Node(ontology.Tag, label)
}
