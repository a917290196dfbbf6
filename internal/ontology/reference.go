package ontology

import (
	"time"

	"iyp/internal/graph"
)

// Reference is the provenance annotation that IYP systematically attaches
// to every relationship it imports (paper §2.2): it records which
// organization produced the data, which dataset it came from, where it was
// fetched, and when.
type Reference struct {
	// Organization that provides and maintains the dataset.
	Organization string
	// Name uniquely identifies the dataset, e.g. "bgpkit.pfx2asn". The
	// convention is "<org>.<dataset>" in lower-case.
	Name string
	// InfoURL links to a human-readable description of the dataset.
	InfoURL string
	// DataURL is the URL the dataset was retrieved from.
	DataURL string
	// ModificationTime is when the dataset was last modified upstream
	// (zero when unknown).
	ModificationTime time.Time
	// FetchTime is when the dataset was imported into IYP.
	FetchTime time.Time
}

// Relationship property names used for provenance. Kept identical to the
// IYP naming so published queries (e.g. Listing 3's
// {reference_name:'openintel.tranco1m'}) work unchanged.
const (
	PropReferenceOrg     = "reference_org"
	PropReferenceName    = "reference_name"
	PropReferenceURLInfo = "reference_url_info"
	PropReferenceURLData = "reference_url_data"
	PropReferenceModTime = "reference_time_modification"
	PropReferenceFetch   = "reference_time_fetch"
)

// timeLayout is how timestamps are stored in the graph (Neo4j-style ISO
// 8601 to the second, UTC).
const timeLayout = "2006-01-02T15:04:05Z"

// Props renders the reference as relationship properties.
func (r Reference) Props() graph.Props {
	p := graph.Props{
		PropReferenceOrg:  graph.String(r.Organization),
		PropReferenceName: graph.String(r.Name),
	}
	if r.InfoURL != "" {
		p[PropReferenceURLInfo] = graph.String(r.InfoURL)
	}
	if r.DataURL != "" {
		p[PropReferenceURLData] = graph.String(r.DataURL)
	}
	if !r.ModificationTime.IsZero() {
		p[PropReferenceModTime] = graph.String(r.ModificationTime.UTC().Format(timeLayout))
	}
	if !r.FetchTime.IsZero() {
		p[PropReferenceFetch] = graph.String(r.FetchTime.UTC().Format(timeLayout))
	}
	return p
}
