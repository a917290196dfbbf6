package cypher

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"iyp/internal/graph"
)

// ValKind tags runtime values produced by query evaluation.
type ValKind uint8

const (
	// ValScalar wraps a graph.Value (null, bool, int, float, string, or a
	// list of scalars).
	ValScalar ValKind = iota
	// ValNode references a graph node.
	ValNode
	// ValRel references a graph relationship.
	ValRel
	// ValList is a list of runtime values (may mix entities and scalars).
	ValList
	// ValPath is a matched path: nodes and the relationships between them.
	ValPath
	// ValMap is a string-keyed map of runtime values (map literals,
	// properties(x)).
	ValMap
)

// Val is a runtime value: either a scalar, a graph entity reference, a
// list, a map, or a path. It is 88 bytes: scan rows hold scalars and entity
// IDs only, so the payloads of lists, maps and paths sit behind one pointer
// instead of widening every binding the matcher copies.
type Val struct {
	kind   ValKind
	scalar graph.Value
	id     uint64  // node or relationship ID
	ext    *valExt // list, map or path payload (nil for other kinds)
}

// valExt holds the payload of a list, map or path value. It is immutable
// once built and may be shared by any number of Vals.
type valExt struct {
	list  []Val
	m     map[string]Val
	nodes []graph.NodeID
	rels  []graph.RelID
}

// ScalarVal wraps a graph.Value.
func ScalarVal(v graph.Value) Val { return Val{kind: ValScalar, scalar: v} }

// NullVal returns the scalar null.
func NullVal() Val { return ScalarVal(graph.Null()) }

// NodeVal references node id.
func NodeVal(id graph.NodeID) Val { return Val{kind: ValNode, id: uint64(id)} }

// RelVal references relationship id.
func RelVal(id graph.RelID) Val { return Val{kind: ValRel, id: uint64(id)} }

// ListVal wraps a list.
func ListVal(vs []Val) Val { return Val{kind: ValList, ext: &valExt{list: vs}} }

// MapVal wraps a map. The map is used directly; callers must not mutate it
// afterwards.
func MapVal(m map[string]Val) Val { return Val{kind: ValMap, ext: &valExt{m: m}} }

// PathVal builds a path value.
func PathVal(nodes []graph.NodeID, rels []graph.RelID) Val {
	return Val{kind: ValPath, ext: &valExt{nodes: nodes, rels: rels}}
}

// ValOf converts a native Go value — the shapes encoding/json produces —
// into the engine's runtime representation. Unlike graph.Of it supports
// nested maps and lists (as ExecOptions.ParamVals entries) and returns an
// error instead of panicking on unsupported types.
func ValOf(v any) (Val, error) {
	switch x := v.(type) {
	case nil:
		return NullVal(), nil
	case Val:
		return x, nil
	case graph.Value:
		return ScalarVal(x), nil
	case bool:
		return ScalarVal(graph.Bool(x)), nil
	case int:
		return ScalarVal(graph.Int(int64(x))), nil
	case int64:
		return ScalarVal(graph.Int(x)), nil
	case float64:
		return ScalarVal(graph.Float(x)), nil
	case string:
		return ScalarVal(graph.String(x)), nil
	case []any:
		vs := make([]Val, len(x))
		for i, e := range x {
			ev, err := ValOf(e)
			if err != nil {
				return NullVal(), err
			}
			vs[i] = ev
		}
		return ListVal(vs), nil
	case map[string]any:
		m := make(map[string]Val, len(x))
		for k, e := range x {
			ev, err := ValOf(e)
			if err != nil {
				return NullVal(), err
			}
			m[k] = ev
		}
		return MapVal(m), nil
	default:
		return NullVal(), &Error{Msg: fmt.Sprintf("unsupported parameter value of type %T", v)}
	}
}

// Kind returns the value's kind.
func (v Val) Kind() ValKind { return v.kind }

// IsNull reports whether v is the scalar null.
func (v Val) IsNull() bool { return v.kind == ValScalar && v.scalar.IsNull() }

// Scalar returns the wrapped graph.Value; ok is false for non-scalars.
func (v Val) Scalar() (graph.Value, bool) { return v.scalar, v.kind == ValScalar }

// AsNode returns the node ID; ok is false for non-nodes.
func (v Val) AsNode() (graph.NodeID, bool) {
	if v.kind != ValNode {
		return 0, false
	}
	return graph.NodeID(v.id), true
}

// AsRel returns the relationship ID; ok is false for non-rels.
func (v Val) AsRel() (graph.RelID, bool) {
	if v.kind != ValRel {
		return 0, false
	}
	return graph.RelID(v.id), true
}

// AsList returns list elements; ok is false for non-lists.
func (v Val) AsList() ([]Val, bool) {
	if v.kind != ValList {
		return nil, false
	}
	return v.ext.list, true
}

// AsMap returns map entries; ok is false for non-maps. The returned map
// must not be mutated.
func (v Val) AsMap() (map[string]Val, bool) {
	if v.kind != ValMap {
		return nil, false
	}
	return v.ext.m, true
}

// AsPath returns path nodes and rels; ok is false for non-paths.
func (v Val) AsPath() ([]graph.NodeID, []graph.RelID, bool) {
	if v.kind != ValPath {
		return nil, nil, false
	}
	return v.ext.nodes, v.ext.rels, true
}

// Convenience scalar accessors used heavily by studies and tests.

// AsString returns a string payload.
func (v Val) AsString() (string, bool) {
	if v.kind != ValScalar {
		return "", false
	}
	return v.scalar.AsString()
}

// AsInt returns an int payload.
func (v Val) AsInt() (int64, bool) {
	if v.kind != ValScalar {
		return 0, false
	}
	return v.scalar.AsInt()
}

// AsFloat returns a float payload (converting ints).
func (v Val) AsFloat() (float64, bool) {
	if v.kind != ValScalar {
		return 0, false
	}
	return v.scalar.AsFloat()
}

// AsBool returns a bool payload.
func (v Val) AsBool() (bool, bool) {
	if v.kind != ValScalar {
		return false, false
	}
	return v.scalar.AsBool()
}

// Equal implements Cypher equality: entities compare by identity, scalars
// by value, lists element-wise. A scalar list (a stored property, a
// graph.Value parameter) is the list of its elements: it equals a list
// value holding equal elements.
func (v Val) Equal(o Val) bool {
	if v.kind != o.kind {
		vl, verr := listElems(v)
		ol, oerr := listElems(o)
		return verr == nil && oerr == nil && slices.EqualFunc(vl, ol, Val.Equal)
	}
	switch v.kind {
	case ValScalar:
		return v.scalar.Equal(o.scalar)
	case ValNode, ValRel:
		return v.id == o.id
	case ValList:
		return slices.EqualFunc(v.ext.list, o.ext.list, Val.Equal)
	case ValMap:
		if len(v.ext.m) != len(o.ext.m) {
			return false
		}
		for k, e := range v.ext.m {
			oe, ok := o.ext.m[k]
			if !ok || !e.Equal(oe) {
				return false
			}
		}
		return true
	case ValPath:
		return slices.Equal(v.ext.nodes, o.ext.nodes) && slices.Equal(v.ext.rels, o.ext.rels)
	}
	return false
}

// Bytes that give a key its structure. Strings and map keys escape them
// (keyEsc before the byte), so payload bytes are never read as structure.
const (
	keyEsc    = 0x1d // escapes the next byte of a string or map key
	keyRowSep = 0x1e // ends each column of a row key
	keySep    = 0x1f // starts each list element and map entry
)

// appendKey appends v's key to buf: the bytes DISTINCT, grouping, UNION
// dedup and count(DISTINCT …) compare values by, and compareVals' fallback
// order. Two values share a key only when they hold the same data (an
// integral float shares the key of the equal int, as Equal says): every
// list and map carries its element count, a map key ends at an unescaped
// '=', and a string runs to the next unescaped separator. Node,
// relationship and numeric keys, and the keys of strings without structure
// bytes, are the encoding's original ones, so ORDER BY over existing data
// orders as it always has. A scalar list keys as the list of its elements,
// as Equal says.
func (v Val) appendKey(buf []byte) []byte {
	switch v.kind {
	case ValScalar:
		l, ok := v.scalar.AsList()
		if !ok {
			return appendScalarKey(append(buf, 'S'), v.scalar)
		}
		buf = strconv.AppendInt(append(buf, 'L'), int64(len(l)), 10)
		for _, e := range l {
			buf = ScalarVal(e).appendKey(append(buf, keySep))
		}
	case ValNode:
		return strconv.AppendUint(append(buf, 'N'), v.id, 10)
	case ValRel:
		return strconv.AppendUint(append(buf, 'R'), v.id, 10)
	case ValList:
		buf = strconv.AppendInt(append(buf, 'L'), int64(len(v.ext.list)), 10)
		for _, e := range v.ext.list {
			buf = e.appendKey(append(buf, keySep))
		}
	case ValMap:
		keys := make([]string, 0, len(v.ext.m))
		for k := range v.ext.m {
			keys = append(keys, k)
		}
		sortStrings(keys)
		buf = strconv.AppendInt(append(buf, 'M'), int64(len(keys)), 10)
		for _, k := range keys {
			buf = appendEscaped(append(buf, keySep), k, '=')
			buf = v.ext.m[k].appendKey(append(buf, '='))
		}
	case ValPath:
		buf = append(buf, 'P')
		for _, n := range v.ext.nodes {
			buf = strconv.AppendUint(append(buf, 'n'), uint64(n), 10)
		}
		for _, r := range v.ext.rels {
			buf = strconv.AppendUint(append(buf, 'r'), uint64(r), 10)
		}
	}
	return buf
}

// appendRowKey appends the key of a row of values: each value's key ended
// by keyRowSep.
func appendRowKey(buf []byte, vals []Val) []byte {
	for _, v := range vals {
		buf = append(v.appendKey(buf), keyRowSep)
	}
	return buf
}

func appendScalarKey(buf []byte, v graph.Value) []byte {
	switch v.Kind() {
	case graph.KindNull:
		return append(buf, '_')
	case graph.KindBool:
		b, _ := v.AsBool()
		return strconv.AppendBool(append(buf, 'b'), b)
	case graph.KindInt:
		i, _ := v.AsInt()
		return strconv.AppendInt(append(buf, 'i'), i, 10)
	case graph.KindFloat:
		// Integral floats collide with ints, consistent with Equal.
		f, _ := v.AsFloat()
		if f == float64(int64(f)) {
			return strconv.AppendInt(append(buf, 'i'), int64(f), 10)
		}
		return strconv.AppendFloat(append(buf, 'f'), f, 'g', -1, 64)
	case graph.KindString:
		s, _ := v.AsString()
		return appendEscaped(append(buf, 's'), s, keyEsc)
	}
	return append(buf, '?')
}

// appendEscaped appends s with keyEsc before every structure byte and
// before stop, the byte that ends s in its key (a map key's '=').
func appendEscaped(buf []byte, s string, stop byte) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == keyEsc || c == keyRowSep || c == keySep || c == stop {
			buf = append(append(buf, s[start:i]...), keyEsc)
			start = i
		}
	}
	return append(buf, s[start:]...)
}

// Native converts v to plain Go data for JSON / display. Nodes and
// relationships render as maps with their labels/type and properties.
func (v Val) Native(g *graph.Graph) any {
	switch v.kind {
	case ValScalar:
		return v.scalar.Native()
	case ValNode:
		id := graph.NodeID(v.id)
		return map[string]any{
			"_id":        v.id,
			"labels":     g.NodeLabels(id),
			"properties": propsNative(g.NodeProps(id)),
		}
	case ValRel:
		id := graph.RelID(v.id)
		from, to := g.RelEndpoints(id)
		return map[string]any{
			"_id":        v.id,
			"type":       g.RelType(id),
			"from":       uint64(from),
			"to":         uint64(to),
			"properties": propsNative(g.RelProps(id)),
		}
	case ValList:
		out := make([]any, len(v.ext.list))
		for i, e := range v.ext.list {
			out[i] = e.Native(g)
		}
		return out
	case ValMap:
		out := make(map[string]any, len(v.ext.m))
		for k, e := range v.ext.m {
			out[k] = e.Native(g)
		}
		return out
	case ValPath:
		nodes := make([]any, len(v.ext.nodes))
		for i, n := range v.ext.nodes {
			nodes[i] = NodeVal(n).Native(g)
		}
		rels := make([]any, len(v.ext.rels))
		for i, r := range v.ext.rels {
			rels[i] = RelVal(r).Native(g)
		}
		return map[string]any{"nodes": nodes, "relationships": rels}
	}
	return nil
}

func propsNative(p graph.Props) map[string]any {
	out := make(map[string]any, len(p))
	for k, v := range p {
		out[k] = v.Native()
	}
	return out
}

// String renders the value for debugging and table output (without
// resolving entity properties).
func (v Val) String() string {
	switch v.kind {
	case ValScalar:
		if s, ok := v.scalar.AsString(); ok {
			return s
		}
		return v.scalar.String()
	case ValNode:
		return fmt.Sprintf("(#%d)", v.id)
	case ValRel:
		return fmt.Sprintf("[#%d]", v.id)
	case ValList:
		parts := make([]string, len(v.ext.list))
		for i, e := range v.ext.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case ValMap:
		keys := make([]string, 0, len(v.ext.m))
		for k := range v.ext.m {
			keys = append(keys, k)
		}
		sortStrings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ": " + v.ext.m[k].String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case ValPath:
		return fmt.Sprintf("path(%d nodes)", len(v.ext.nodes))
	}
	return "?"
}
