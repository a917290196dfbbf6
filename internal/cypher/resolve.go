package cypher

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"iyp/internal/graph"
)

// Names resolved to graph ids. A MATCH clause's labels and relationship
// types are resolved against the graph the clause executes on, once per
// clause execution (newMatchSpec), and its inline properties compiled into
// property tests (cellpred.go), so the matcher's per-candidate checks and
// adjacency scans compare integers. The ids live in a side table beside the
// AST, indexed by pattern position, never in the AST itself: a parsed query
// is cached and executed against every generation, and a later generation
// may store names an earlier one had never seen.

// resolvedPath is one pattern path's side table: the resolved element at
// every node and relationship position of the embedded path.
type resolvedPath struct {
	*PatternPath
	nodes []resolvedNode
	rels  []resolvedRel
}

// resolvedNode is a node pattern with its labels resolved, the property
// tests its candidates must pass — its inline properties, then the WHERE's
// — and the =/IN predicates on its variable that can seed an index lookup
// when it anchors the path.
type resolvedNode struct {
	*NodePattern
	labels []uint16
	preds  []*cellPred
	seeds  []*cellPred
}

// resolvedRel is a relationship pattern with its type alternation resolved
// and the property tests its relationships must pass: preds[:inline] are
// its inline properties, tested before the node at its far end is bound,
// and the rest the WHERE's, tested once it is. none marks a pattern no
// relationship of the graph satisfies; otherwise empty types admit every
// type.
type resolvedRel struct {
	*RelPattern
	types  []uint16
	preds  []*cellPred
	inline int
	none   bool
}

// resolvePaths resolves the clause's patterns against ec's graph and
// compiles their inline properties. never is set when some pattern element
// names a label, relationship type, key or string literal the graph has
// never stored in a way that no binding can satisfy, and says which, for
// EXPLAIN: the clause then matches nothing and is not enumerated.
func (s *matchSpec) resolvePaths(ec *evalCtx) {
	g := ec.g
	s.paths = make([]resolvedPath, len(s.patterns))
	for i := range s.patterns {
		p := &s.patterns[i]
		rp := resolvedPath{PatternPath: p, nodes: make([]resolvedNode, len(p.Nodes)), rels: make([]resolvedRel, len(p.Rels))}
		for j := range p.Nodes {
			np := &p.Nodes[j]
			rn := &rp.nodes[j]
			rn.NodePattern = np
			for _, l := range np.Labels {
				lid, ok := g.LabelID(l)
				if !ok {
					s.never = cmp.Or(s.never, "unknown label `"+l+"`")
				}
				rn.labels = append(rn.labels, lid)
			}
			var why string
			rn.preds, why = s.inline(ec, np.Var, np.Props)
			// Every inline property seeds. The cap makes the WHERE's
			// appends to either list copy rather than share an array.
			rn.seeds = rn.preds[:len(rn.preds):len(rn.preds)]
			s.never = cmp.Or(s.never, why)
		}
		for j := range p.Rels {
			pat := &p.Rels[j]
			rr := &rp.rels[j]
			rr.RelPattern = pat
			var why string
			for _, t := range pat.Types {
				if tid, ok := g.TypeID(t); ok {
					rr.types = append(rr.types, tid)
				} else {
					why = cmp.Or(why, "unknown relationship type `"+t+"`")
				}
			}
			if len(rr.types) > 0 {
				why = "" // another alternative is stored
			}
			var propWhy string
			rr.preds, propWhy = s.inline(ec, pat.Var, pat.Props)
			rr.inline = len(rr.preds)
			if why = cmp.Or(why, propWhy); why != "" {
				rr.none = true
				// A zero-hop variable-length step binds without a
				// relationship, so only it can still match.
				if !pat.VarLen || pat.MinHops > 0 {
					s.never = cmp.Or(s.never, why)
				}
			}
		}
		s.paths[i] = rp
	}
}

// inline compiles the inline properties of the position that binds v, in
// key order. why is non-empty when a literal is compared under a key the
// graph has never stored, or a string literal is one it has never stored:
// no entity can hold it.
func (s *matchSpec) inline(ec *evalCtx, v string, props map[string]Expr) (preds []*cellPred, why string) {
	if len(props) == 0 {
		return nil, ""
	}
	first := len(s.preds)
	for key, e := range props {
		s.preds = append(s.preds, inlinePred(ec, v, key, e))
	}
	compiled := s.preds[first:]
	slices.SortFunc(compiled, func(a, b cellPred) int { return strings.Compare(a.l.name, b.l.name) })
	preds = make([]*cellPred, len(compiled))
	for i := range compiled {
		p := &compiled[i]
		preds[i] = p
		if _, lit := props[p.l.name].(*Literal); !lit {
			continue
		}
		if !p.l.known {
			why = cmp.Or(why, "unknown property key `"+p.l.name+"`")
		} else if str, isStr := p.c.AsString(); isStr && !p.isStr {
			why = cmp.Or(why, fmt.Sprintf("unknown string %q", str))
		}
	}
	return preds, why
}

// resolveKeys resolves every property key a statement reads through
// PropAccess (Query.keys, slotted by the parser) against g, once per
// execution: entry i holds slot i+1's key id plus one, or 0 when g does
// not store the key yet. Only hits are kept, because a SET earlier in the
// same statement may create a key; a miss is looked up by name per read.
func resolveKeys(g *graph.Graph, q *Query) []uint32 {
	if len(q.keys) == 0 {
		return nil
	}
	ids := make([]uint32, len(q.keys))
	for i, k := range q.keys {
		if id, ok := g.KeyID(k); ok {
			ids[i] = id + 1
		}
	}
	return ids
}
