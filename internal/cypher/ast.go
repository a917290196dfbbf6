package cypher

// Query is a parsed Cypher query: a sequence of clauses, optionally
// chained to further queries with UNION / UNION ALL.
type Query struct {
	Clauses []Clause
	// Next is the query after a UNION; nil when there is none.
	Next *Query
	// UnionAll keeps duplicate rows when combining with Next.
	UnionAll bool
	// AsOf, when non-nil, is the generation expression of a trailing
	// `AS OF <gen>` suffix: the statement is pinned to that historical
	// generation. It is only set on the outermost query (the suffix
	// applies to the whole statement, including UNION branches) and must
	// evaluate to a positive integer — an int literal or a $parameter.
	// Resolution happens in the DB/server layer (see AsOfGeneration), not
	// in the executor: the caller acquires the generation and executes
	// against it.
	AsOf Expr
	// keys is the statement's PropAccess key table, by slot (outermost
	// query only).
	keys []string
}

// IsWrite reports whether the query mutates the graph (CREATE, MERGE,
// SET, DELETE or REMOVE anywhere in the query, including UNION branches).
// The MVCC layer routes write queries through a writer transaction and
// runs everything else against a pinned immutable generation.
func (q *Query) IsWrite() bool {
	for ; q != nil; q = q.Next {
		for _, c := range q.Clauses {
			switch c.(type) {
			case *CreateClause, *MergeClause, *SetClause, *DeleteClause, *RemoveClause:
				return true
			}
		}
	}
	return false
}

// Clause is implemented by every top-level clause node.
type Clause interface{ clause() }

// MatchClause is MATCH or OPTIONAL MATCH with an optional WHERE.
type MatchClause struct {
	Optional bool
	Patterns []PatternPath
	Where    Expr // may be nil
}

// WithClause projects, optionally aggregates, filters and paginates rows
// mid-query.
type WithClause struct {
	Distinct bool
	Items    []ReturnItem
	Star     bool // WITH *
	Where    Expr // may be nil
	OrderBy  []SortItem
	Skip     Expr
	Limit    Expr
}

// ReturnClause is the terminal projection.
type ReturnClause struct {
	Distinct bool
	Items    []ReturnItem
	Star     bool
	OrderBy  []SortItem
	Skip     Expr
	Limit    Expr
}

// UnwindClause expands a list expression into one row per element.
type UnwindClause struct {
	Expr  Expr
	Alias string
}

// CreateClause creates the nodes and relationships of its patterns.
type CreateClause struct {
	Patterns []PatternPath
}

// MergeClause matches the pattern or creates it atomically.
type MergeClause struct {
	Pattern     PatternPath
	OnCreateSet []SetItem
	OnMatchSet  []SetItem
}

// SetClause assigns properties or labels.
type SetClause struct {
	Items []SetItem
}

// SetItem is one assignment in SET. Exactly one of the forms is used:
// property assignment (Target.Key = Value), label addition (Var:Label), or
// map merge (Var += Value).
type SetItem struct {
	Var      string
	Key      string // property key; empty for label/map forms
	Label    string // label to add; empty otherwise
	MapMerge bool   // Var += map
	Value    Expr
}

// DeleteClause removes entities.
type DeleteClause struct {
	Detach bool
	Exprs  []Expr
}

// RemoveClause clears properties (REMOVE n.prop) — label removal is not
// supported, matching the append-only label model of the store.
type RemoveClause struct {
	Items []SetItem // Key-form items only
}

// CallClause is CALL proc({config}) YIELD col AS alias, ... WHERE expr —
// a registered-procedure invocation streaming rows into the pipeline.
type CallClause struct {
	// Proc is the lower-cased dotted procedure name.
	Proc string
	// Args is the argument expression (must evaluate to a map); nil when
	// called without arguments.
	Args Expr
	// Yield selects and renames output columns; nil yields every column
	// under its own name.
	Yield []YieldItem
	// Where filters the yielded rows; may be nil.
	Where Expr
}

// YieldItem is one column selection in YIELD.
type YieldItem struct {
	Col   string
	Alias string // "" = keep Col
}

func (*MatchClause) clause()  {}
func (*WithClause) clause()   {}
func (*ReturnClause) clause() {}
func (*UnwindClause) clause() {}
func (*CreateClause) clause() {}
func (*MergeClause) clause()  {}
func (*SetClause) clause()    {}
func (*DeleteClause) clause() {}
func (*RemoveClause) clause() {}
func (*CallClause) clause()   {}

// ReturnItem is one projection expression with an optional alias.
type ReturnItem struct {
	Expr  Expr
	Alias string // "" = derive from expression text
	Text  string // source text, used as the column name when Alias == ""
}

// SortItem is one ORDER BY key.
type SortItem struct {
	Expr Expr
	Desc bool
}

// --- patterns ---

// PatternPath is one comma-separated element of a MATCH/CREATE pattern:
// alternating nodes and relationships, beginning and ending with a node.
type PatternPath struct {
	Var   string // path variable: p = (a)-[..]->(b); "" if unnamed
	Nodes []NodePattern
	Rels  []RelPattern // len(Rels) == len(Nodes)-1
	// Shortest marks a shortestPath((a)-[*..n]-(b)) pattern: exactly two
	// nodes and one (variable-length) relationship, matched by BFS.
	Shortest bool
}

// NodePattern is one parenthesized node element.
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
}

// RelDir is the syntactic direction of a relationship pattern relative to
// reading order (left node to right node).
type RelDir uint8

const (
	// DirAny matches either orientation: -[]-.
	DirAny RelDir = iota
	// DirRight matches left-to-right: -[]->.
	DirRight
	// DirLeft matches right-to-left: <-[]-.
	DirLeft
)

// RelPattern is one bracketed relationship element.
type RelPattern struct {
	Var     string
	Types   []string // alternation :A|B|C; empty = any type
	Props   map[string]Expr
	Dir     RelDir
	VarLen  bool
	MinHops int // valid when VarLen
	MaxHops int // valid when VarLen; -1 = unbounded
}

// --- expressions ---

// Expr is implemented by all expression nodes.
type Expr interface{ expr() }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAnd BinOp = iota
	OpOr
	OpXor
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpPow
	OpIn
	OpStartsWith
	OpEndsWith
	OpContains
)

// Literal is a constant value (bool, int, float, string, null).
type Literal struct {
	Kind LiteralKind
	S    string
	I    int64
	F    float64
	B    bool
}

// LiteralKind tags Literal.
type LiteralKind int

// Literal kinds.
const (
	LitNull LiteralKind = iota
	LitBool
	LitInt
	LitFloat
	LitString
)

// Variable references a bound name.
type Variable struct{ Name string }

// PropAccess is expr.key.
type PropAccess struct {
	Target Expr
	Key    string
	// slot numbers Key in its statement's key table (Query.keys) from 1; 0
	// when the access was not built by the parser. Execution resolves the
	// table once (resolveKeys) and reads by id.
	slot int
}

// Param is $name.
type Param struct{ Name string }

// FnCall is a function or aggregate invocation. Name is lower-cased.
type FnCall struct {
	Name     string
	Distinct bool
	Star     bool // count(*)
	Args     []Expr
}

// ListExpr is a list literal.
type ListExpr struct{ Elems []Expr }

// MapExpr is a map literal.
type MapExpr struct {
	Keys  []string
	Exprs []Expr
}

// IndexExpr is expr[index] or expr[from..to] slices.
type IndexExpr struct {
	Target  Expr
	Index   Expr // nil for slices
	SliceLo Expr // may be nil
	SliceHi Expr // may be nil
	IsSlice bool
}

// BinaryExpr applies Op to Left and Right.
type BinaryExpr struct {
	Op          BinOp
	Left, Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Not bool // true: logical not; false: numeric negation
	X   Expr
}

// IsNullExpr is x IS NULL / x IS NOT NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// CaseExpr supports both simple (CASE x WHEN v THEN r) and searched
// (CASE WHEN cond THEN r) forms.
type CaseExpr struct {
	Operand Expr // nil for searched form
	Whens   []Expr
	Thens   []Expr
	Else    Expr // may be nil
}

// ExistsExpr is EXISTS { (pattern) [WHERE expr] } or the legacy
// exists(expr) property form (represented as FnCall "exists").
type ExistsExpr struct {
	Patterns []PatternPath
	Where    Expr
}

// CountExpr is COUNT { (pattern) } subquery counting.
type CountExpr struct {
	Patterns []PatternPath
	Where    Expr
}

// ListComprehension is [x IN list WHERE pred | proj].
type ListComprehension struct {
	Var    string
	Source Expr
	Where  Expr // may be nil
	Proj   Expr // may be nil (identity)
}

func (*Literal) expr()           {}
func (*Variable) expr()          {}
func (*PropAccess) expr()        {}
func (*Param) expr()             {}
func (*FnCall) expr()            {}
func (*ListExpr) expr()          {}
func (*MapExpr) expr()           {}
func (*IndexExpr) expr()         {}
func (*BinaryExpr) expr()        {}
func (*UnaryExpr) expr()         {}
func (*IsNullExpr) expr()        {}
func (*CaseExpr) expr()          {}
func (*ExistsExpr) expr()        {}
func (*CountExpr) expr()         {}
func (*ListComprehension) expr() {}

// containsAggregate reports whether e contains an aggregate function call
// outside of a nested subquery.
func containsAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *FnCall:
		if isAggregateFn(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *PropAccess:
		return containsAggregate(x.Target)
	case *BinaryExpr:
		return containsAggregate(x.Left) || containsAggregate(x.Right)
	case *UnaryExpr:
		return containsAggregate(x.X)
	case *IsNullExpr:
		return containsAggregate(x.X)
	case *ListExpr:
		for _, e := range x.Elems {
			if containsAggregate(e) {
				return true
			}
		}
	case *MapExpr:
		for _, e := range x.Exprs {
			if containsAggregate(e) {
				return true
			}
		}
	case *IndexExpr:
		return containsAggregate(x.Target) || containsAggregate(x.Index) ||
			containsAggregate(x.SliceLo) || containsAggregate(x.SliceHi)
	case *CaseExpr:
		if containsAggregate(x.Operand) || containsAggregate(x.Else) {
			return true
		}
		for i := range x.Whens {
			if containsAggregate(x.Whens[i]) || containsAggregate(x.Thens[i]) {
				return true
			}
		}
	case *ListComprehension:
		return containsAggregate(x.Source) || containsAggregate(x.Where) || containsAggregate(x.Proj)
	}
	return false
}

func isAggregateFn(name string) bool {
	switch name {
	case "count", "collect", "sum", "avg", "min", "max",
		"percentilecont", "percentiledisc", "stdev", "stdevp":
		return true
	}
	return false
}
