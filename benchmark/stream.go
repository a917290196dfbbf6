package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"iyp"
	"iyp/internal/graph"
)

// A template is one indexed point lookup of the public-instance traffic:
// an identity-property anchor on label.key followed by a short traversal.
// The same text is sent either with a $param (one plan-cache entry per
// template) or with the literal inlined (one distinct text per key).
type template struct {
	name  string
	label string
	key   string
	query string // anchors on $<key>
}

var lookupTemplates = []template{
	{"as_names", "AS", "asn",
		`MATCH (a:AS {asn:$asn})-[:NAME]-(n:Name) RETURN DISTINCT n.name AS name ORDER BY name`},
	{"as_prefixes", "AS", "asn",
		`MATCH (a:AS {asn:$asn})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p.prefix AS prefix ORDER BY prefix`},
	{"prefix_tags", "Prefix", "prefix",
		`MATCH (p:Prefix {prefix:$prefix})-[:CATEGORIZED]-(t:Tag) RETURN DISTINCT t.label AS label ORDER BY label`},
	{"host_to_as", "HostName", "name",
		`MATCH (h:HostName {name:$name})-[:RESOLVES_TO]-(:IP)-[:PART_OF]-(p:Prefix)-[:ORIGINATE]-(a:AS) RETURN DISTINCT a.asn AS asn ORDER BY asn`},
}

// analyticsClasses is the fixed six-query analyst round. The first four are
// the BENCH_5 queries verbatim, listing4_rpki_top10k is the RiPKI study's
// Listing 4 text (internal/studies/rpki.go, rpkiPrefixQuery) with its rank
// window inlined.
var analyticsClasses = []struct{ name, query string }{
	{"listing1_originating_ases",
		`MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn`},
	{"listing2_moas",
		`MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) WHERE x.asn <> y.asn RETURN DISTINCT p.prefix`},
	{"rpki_tag_coverage",
		`MATCH (a:AS)-[:ORIGINATE]-(p:Prefix)-[:CATEGORIZED]-(t:Tag) WHERE t.label = "RPKI Valid" RETURN a.asn, p.prefix`},
	{"country_aggregation",
		`MATCH (a:AS)-[:COUNTRY]-(c:Country) RETURN c.country_code AS cc, count(*) AS n ORDER BY n DESC, cc`},
	{"pagerank_top5",
		`CALL algo.pagerank({labels: ['AS'], relTypes: ['PEERS_WITH']}) YIELD node, score RETURN node, score ORDER BY score DESC, node LIMIT 5`},
	{"listing4_rpki_top10k", `
MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName)
WHERE r.rank >= 1 AND r.rank <= 10000
MATCH (d)-[:PART_OF]-(h:HostName)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
WHERE t.label STARTS WITH 'RPKI'
RETURN DISTINCT pfx.prefix AS prefix, t.label AS label`},
}

// A request is one distinct query the generator can send, pre-rendered,
// with the answer the oracle expects for it.
type request struct {
	class  int         // index into lookupTemplates or analyticsClasses
	key    graph.Value // a lookup's identity value
	query  string      // text as sent
	params map[string]iyp.Value
	body   []byte // JSON request body
	wire   []byte // complete HTTP/1.1 request

	wantCount int
	wantRows  uint64 // hash of the rows array as the server encodes it
}

// A stream is the seeded lookup traffic: order indexes into reqs, so a
// popular key is rendered and answered by the oracle once.
type stream struct {
	reqs  []request
	order []int32
	sha   [32]byte // over the bodies in stream order
}

const (
	zipfS         = 1.1
	inlineShare   = 0.25
	streamLen     = 1 << 16 // cycled when a phase outlasts it
	fullRowsEvery = 100     // one response in this many has its rows compared
)

// identityValues returns the label's identity values in a seeded
// popularity order: rank 0 is the most requested key.
func identityValues(g *graph.Graph, label, key string, rng *rand.Rand) []graph.Value {
	ids := g.NodesByLabel(label)
	vals := make([]graph.Value, 0, len(ids))
	for _, id := range ids {
		v := g.NodeProp(id, key)
		if _, ok := v.AsInt(); ok {
			vals = append(vals, v)
		} else if _, ok := v.AsString(); ok {
			vals = append(vals, v)
		}
	}
	// Node id order depends on crawler scheduling; value order does not.
	sort.Slice(vals, func(i, j int) bool { return vals[i].String() < vals[j].String() })
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

func literal(v graph.Value) string {
	if i, ok := v.AsInt(); ok {
		return strconv.FormatInt(i, 10)
	}
	s, _ := v.AsString()
	return "'" + s + "'"
}

func renderRequest(class int, query string, params map[string]iyp.Value) request {
	payload := struct {
		Query  string         `json:"query"`
		Params map[string]any `json:"params,omitempty"`
	}{Query: query}
	if params != nil {
		payload.Params = make(map[string]any, len(params))
		for k, v := range params {
			payload.Params[k] = v.Native()
		}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return request{class: class, query: query, params: params, body: body, wire: append(requestHead(len(body)), body...)}
}

func requestHead(bodyLen int) []byte {
	return fmt.Appendf(nil, "POST /v1/query HTTP/1.1\r\nHost: iyp\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", bodyLen)
}

// newLookupStream draws streamLen lookups: template uniform, key Zipf over
// the label's popularity order, literal inlined for a quarter of them.
func newLookupStream(g *graph.Graph, seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	values := map[string][]graph.Value{}
	zipfs := map[string]*rand.Zipf{}
	for _, t := range lookupTemplates {
		if values[t.label] != nil {
			continue
		}
		vals := identityValues(g, t.label, t.key, rng)
		if len(vals) < 2 {
			return nil, fmt.Errorf("stream: graph has %d %s nodes", len(vals), t.label)
		}
		values[t.label] = vals
		zipfs[t.label] = rand.NewZipf(rng, zipfS, 1, uint64(len(vals)-1))
	}
	type key struct {
		class, rank int
		inline      bool
	}
	seen := map[key]int32{}
	s := &stream{order: make([]int32, streamLen)}
	h := sha256.New()
	for i := range s.order {
		class := rng.Intn(len(lookupTemplates))
		t := lookupTemplates[class]
		k := key{class, int(zipfs[t.label].Uint64()), rng.Float64() < inlineShare}
		idx, ok := seen[k]
		if !ok {
			v := values[t.label][k.rank]
			if k.inline {
				s.reqs = append(s.reqs, renderRequest(class, strings.Replace(t.query, "$"+t.key, literal(v), 1), nil))
			} else {
				s.reqs = append(s.reqs, renderRequest(class, t.query, map[string]iyp.Value{t.key: v}))
			}
			idx = int32(len(s.reqs) - 1)
			s.reqs[idx].key = v
			seen[k] = idx
		}
		s.order[i] = idx
		h.Write(s.reqs[idx].body)
	}
	h.Sum(s.sha[:0])
	return s, nil
}

// newAnalyticsStream is the six-query round, one request per class.
func newAnalyticsStream() *stream {
	s := &stream{}
	h := sha256.New()
	for i, c := range analyticsClasses {
		s.reqs = append(s.reqs, renderRequest(i, c.query, nil))
		s.order = append(s.order, int32(i))
		h.Write(s.reqs[i].body)
	}
	h.Sum(s.sha[:0])
	return s
}

// shaNumber is the stream hash as a metric value: its first 48 bits, which
// a float64 holds exactly.
func (s *stream) shaNumber() float64 {
	return float64(binary.BigEndian.Uint64(s.sha[:8]) >> 16)
}

func hashRows(rowsJSON []byte) uint64 {
	h := fnv.New64a()
	h.Write(rowsJSON)
	return h.Sum64()
}

// answer fills in what db returns for every request: the oracle the
// served responses are held to.
func (s *stream) answer(ctx context.Context, db *iyp.DB) error {
	for i := range s.reqs {
		r := &s.reqs[i]
		var opts []iyp.QueryOption
		if r.params != nil {
			opts = append(opts, iyp.WithParams(r.params))
		}
		res, err := db.Query(ctx, r.query, opts...)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", r.query, err)
		}
		rows, err := json.Marshal(res.Native())
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", r.query, err)
		}
		r.wantCount, r.wantRows = res.Len(), hashRows(rows)
	}
	return nil
}
