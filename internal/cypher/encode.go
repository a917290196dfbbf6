package cypher

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"iyp/internal/graph"
)

// AppendJSON appends the HTTP API's response body for r, byte for byte as
// encoding/json encodes {"columns","rows","count","truncated","took_ms",
// "generation"}, rows from Native(). Values other than nulls, bools, ints and
// plain strings go through json.Marshal(v.Native(g)); a NaN is an error.
func (r *Result) AppendJSON(buf []byte, tookMS int64, gen uint64) ([]byte, error) {
	cols, _ := json.Marshal(r.Columns) // strings always marshal
	buf = append(append(buf, `{"columns":`...), cols...)
	// A row is a map to encoding/json: keys in byte order, and a column
	// name a CALL yields twice holds its last value.
	var order []int
	for i, c := range r.Columns {
		if !slices.Contains(r.Columns[i+1:], c) {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(r.Columns[a], r.Columns[b]) })
	buf = append(buf, `,"rows":[`...)
	for n, vals := range r.Rows {
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		for k, i := range order {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(appendJSONString(buf, r.Columns[i]), ':')
			var err error
			if buf, err = appendJSONVal(buf, vals[i], r.g); err != nil {
				return buf, &Error{Msg: fmt.Sprintf("column `%s` holds %s, which JSON cannot encode", r.Columns[i], vals[i])}
			}
		}
		buf = append(buf, '}')
	}
	buf = strconv.AppendInt(append(buf, `],"count":`...), int64(len(r.Rows)), 10)
	buf = strconv.AppendBool(append(buf, `,"truncated":`...), r.Truncated)
	buf = strconv.AppendInt(append(buf, `,"took_ms":`...), tookMS, 10)
	return append(strconv.AppendUint(append(buf, `,"generation":`...), gen, 10), "}\n"...), nil
}

func appendJSONVal(buf []byte, v Val, g *graph.Graph) ([]byte, error) {
	if v.kind == ValScalar {
		switch v.scalar.Kind() {
		case graph.KindNull:
			return append(buf, "null"...), nil
		case graph.KindBool:
			b, _ := v.scalar.AsBool()
			return strconv.AppendBool(buf, b), nil
		case graph.KindInt:
			i, _ := v.scalar.AsInt()
			return strconv.AppendInt(buf, i, 10), nil
		case graph.KindString:
			s, _ := v.scalar.AsString()
			return appendJSONString(buf, s), nil
		}
	}
	b, err := json.Marshal(v.Native(g))
	return append(buf, b...), err
}

// appendJSONString writes s between quotes as it is when encoding/json
// would: printable ASCII without `"`, `\` or the HTML-escaped <, > and &.
func appendJSONString(buf []byte, s string) []byte {
	if strings.ContainsFunc(s, func(c rune) bool { return c < ' ' || c > '~' || strings.ContainsRune(`"\<>&`, c) }) {
		b, _ := json.Marshal(s) // strings always marshal
		return append(buf, b...)
	}
	return append(append(append(buf, '"'), s...), '"')
}
