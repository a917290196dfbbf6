package cypher

import (
	"cmp"
	"fmt"

	"iyp/internal/graph"
)

// Names resolved to graph ids. A MATCH clause's labels, relationship types,
// inline property keys and inline string literals are resolved against the
// graph the clause executes on, once per clause execution (newMatchSpec),
// so the matcher's per-candidate checks and adjacency scans compare
// integers. The ids live in a side table beside the AST, indexed by pattern
// position, never in the AST itself: a parsed query is cached and executed
// against every generation, and a later generation may store names an
// earlier one had never seen.

// resolvedPath is one pattern path's side table: the resolved element at
// every node and relationship position of the embedded path.
type resolvedPath struct {
	*PatternPath
	nodes []resolvedNode
	rels  []resolvedRel
}

// resolvedNode is a node pattern with its labels and inline properties
// resolved, and the WHERE's cell predicates that read its variable.
type resolvedNode struct {
	*NodePattern
	labels []uint16
	props  []resolvedProp
	preds  []*cellPred
}

// resolvedRel is a relationship pattern with its type alternation and
// inline properties resolved, and the WHERE's cell predicates that read its
// variable. none marks a pattern no relationship of the graph satisfies;
// otherwise empty types admit every type.
type resolvedRel struct {
	*RelPattern
	types []uint16
	props []resolvedProp
	preds []*cellPred
	none  bool
}

// resolvedProp is one inline property `key: val`. Under a key the graph has
// never stored (!known) val is still evaluated, for its errors, but nothing
// matches; a string literal (isStr) compares the stored cell with the
// literal's dictionary id instead of evaluating val.
type resolvedProp struct {
	key   uint32
	known bool
	val   Expr
	str   uint32
	isStr bool
}

// resolvePaths resolves patterns against g. never is non-empty when some
// pattern element names a label, relationship type, key or string literal
// g has never stored in a way that no binding can satisfy, and says which,
// for EXPLAIN: the clause then matches nothing and is not enumerated.
func resolvePaths(g *graph.Graph, patterns []PatternPath) (paths []resolvedPath, never string) {
	paths = make([]resolvedPath, len(patterns))
	for i := range patterns {
		p := &patterns[i]
		rp := resolvedPath{PatternPath: p, nodes: make([]resolvedNode, len(p.Nodes)), rels: make([]resolvedRel, len(p.Rels))}
		for j := range p.Nodes {
			np := &p.Nodes[j]
			rn := &rp.nodes[j]
			rn.NodePattern = np
			for _, l := range np.Labels {
				lid, ok := g.LabelID(l)
				if !ok {
					never = cmp.Or(never, "unknown label `"+l+"`")
				}
				rn.labels = append(rn.labels, lid)
			}
			var why string
			rn.props, why = resolveProps(g, np.Props)
			never = cmp.Or(never, why)
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
			rr.props, propWhy = resolveProps(g, pat.Props)
			if why = cmp.Or(why, propWhy); why != "" {
				rr.none = true
				// A zero-hop variable-length step binds without a
				// relationship, so only it can still match.
				if !pat.VarLen || pat.MinHops > 0 {
					never = cmp.Or(never, why)
				}
			}
		}
		paths[i] = rp
	}
	return paths, never
}

// resolveProps resolves inline properties in key order. why is non-empty
// when a literal is compared under a key the graph has never stored, or a
// string literal is one it has never stored: no entity can hold it. An
// unknown key compared with an expression still evaluates it per row, so
// that its errors surface.
func resolveProps(g *graph.Graph, props map[string]Expr) (out []resolvedProp, why string) {
	if len(props) == 0 {
		return nil, ""
	}
	out = make([]resolvedProp, 0, len(props))
	for _, k := range sortedPropKeys(props) {
		rp := resolvedProp{val: props[k]}
		rp.key, rp.known = g.KeyID(k)
		if lit, ok := rp.val.(*Literal); ok {
			if !rp.known {
				why = cmp.Or(why, "unknown property key `"+k+"`")
			}
			if lit.Kind == LitString {
				if rp.str, rp.isStr = g.Interner().Lookup(lit.S); !rp.isStr {
					why = cmp.Or(why, fmt.Sprintf("unknown string %q", lit.S))
				}
			}
		}
		out = append(out, rp)
	}
	return out, why
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
