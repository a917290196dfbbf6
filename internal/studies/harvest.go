package studies

import (
	"iyp/internal/graph"
)

// The DNS-chain studies (Table 3, Figures 5/6) walk the store once under
// graph.BulkRead and count as they go, with no row harvest in between:
// each ranked domain is visited once, and what it adds to the study is
// known by the end of its visit.

// eachRankedDomain calls fn once per distinct DomainName ranked by the
// first Ranking node named list, in store order. It calls nothing when the
// list, the RANK type or the DomainName label is absent.
func eachRankedDomain(br *graph.BulkReader, list string, fn func(d graph.NodeID)) {
	rankT, okRank := br.TypeID("RANK")
	domL, okDom := br.LabelID("DomainName")
	if !okRank || !okDom {
		return
	}
	for _, ranking := range br.NodesByLabel("Ranking") {
		if s, _ := br.NodeProp(ranking, "name").AsString(); s != list {
			continue
		}
		seen := map[graph.NodeID]bool{}
		br.EachRelOf(ranking, graph.DirBoth, func(_ graph.RelID, typ uint16, d graph.NodeID) bool {
			if typ == rankT && br.NodeHasLabelID(d, domL) && !seen[d] {
				seen[d] = true
				fn(d)
			}
			return true
		})
		return
	}
}
