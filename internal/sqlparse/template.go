package sqlparse

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/sample"
)

// Fingerprint identifies a query *shape*: the canonical statement with
// every literal replaced by a placeholder, plus the query-column-set
// (the grouping and predicate columns that determine which stratified
// sample or synopsis could serve the shape). Two queries that differ
// only in literal values — `WHERE x > 5` vs `WHERE x > 9`, different
// LIMIT or error-clause numbers, different TABLESAMPLE rates — share a
// fingerprint; any structural change (another column, another operator,
// another aggregate) produces a new one.
type Fingerprint struct {
	// Hash is the stable 64-bit FNV-1a digest of Template and QCS,
	// rendered as 16 hex digits. This is the registry key and the value
	// stamped into Diagnostics.
	Hash string `json:"hash"`
	// Template is the literal-normalized canonical SQL.
	Template string `json:"template"`
	// Table is the base (FROM) table.
	Table string `json:"table"`
	// QCS is the sorted distinct set of columns referenced by GROUP BY
	// and WHERE — the query-column-set that sample/synopsis selection
	// keys on.
	QCS []string `json:"qcs,omitempty"`
}

// Fingerprint computes the statement's shape identity. It is total: any
// parse-able statement fingerprints without error, and the EXPLAIN /
// EXPLAIN ANALYZE prefix is ignored so analysis runs correlate with
// their plain shape.
// The result is memoized on the statement, so serving a query (stamping
// the result, filing the workload scorecard) computes it once, and
// concurrent readers may share one statement: mutate a statement only
// before its first Fingerprint call. Callers must not modify the
// returned QCS.
func (s *SelectStmt) Fingerprint() Fingerprint {
	if fp := s.fp.Load(); fp != nil {
		return *fp
	}
	fp := s.fingerprint()
	s.fp.Store(&fp)
	return fp
}

func (s *SelectStmt) fingerprint() Fingerprint {
	tmpl := s.TemplateString()
	qcs := s.QueryColumnSet()
	h := fnv.New64a()
	_, _ = h.Write([]byte(tmpl))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strings.Join(qcs, ",")))
	return Fingerprint{
		Hash:     fmt.Sprintf("%016x", h.Sum64()),
		Template: tmpl,
		Table:    s.From.Name,
		QCS:      qcs,
	}
}

// QueryColumnSet returns the sorted distinct columns referenced by the
// GROUP BY and WHERE clauses — the purely syntactic analogue of the
// offline engine's QCS, computable without a catalog.
func (s *SelectStmt) QueryColumnSet() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, c := range expr.Columns(e) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, g := range s.GroupBy {
		add(g)
	}
	add(s.Where)
	sort.Strings(out)
	return out
}

// TemplateString renders the statement in its canonical form with every
// literal parameterized: scalar literals become `?`, all-literal IN
// lists collapse to `IN (?)` (list arity is a parameter, not shape),
// LIMIT keeps its presence but not its value, WITH ERROR/CONFIDENCE and
// TABLESAMPLE keep their kind but parameterize their rates. Structure —
// columns, operators, aggregate functions (including PERCENTILE's
// quantile, which selects the statistic computed), join topology, sort
// keys — is preserved verbatim.
func (s *SelectStmt) TemplateString() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(templateExpr(it.Expr))
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM " + s.From.Name)
	if s.From.Sample != nil {
		b.WriteString(" TABLESAMPLE " + templateSample(s.From.Sample))
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table.Name)
		if j.Table.Sample != nil {
			b.WriteString(" TABLESAMPLE " + templateSample(j.Table.Sample))
		}
		b.WriteString(" ON " + templateExpr(j.On))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + templateExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(templateExpr(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + templateExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(templateExpr(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ?")
	}
	if s.Error != nil {
		b.WriteString(" WITH ERROR ? CONFIDENCE ?")
	}
	return b.String()
}

// templateSample renders a TABLESAMPLE clause keeping the sampler kind
// and key columns (shape) while parameterizing rates and thresholds.
func templateSample(ts *TableSample) string {
	sp := ts.Spec
	var b strings.Builder
	switch sp.Kind {
	case sample.KindUniformRow:
		b.WriteString("BERNOULLI (?")
	case sample.KindBlock:
		b.WriteString("SYSTEM (?")
	case sample.KindUniverse:
		b.WriteString("UNIVERSE (?")
	case sample.KindDistinct:
		b.WriteString("DISTINCT (?")
		if sp.KeepThreshold > 1 {
			b.WriteString(", ?")
		}
	case sample.KindBiLevel:
		b.WriteString("BILEVEL (?, ?")
	default:
		return sp.Kind.String() + " (?)"
	}
	b.WriteString(")")
	if len(sp.KeyColumns) > 0 {
		b.WriteString(" ON (" + strings.Join(sp.KeyColumns, ", ") + ")")
	}
	return b.String()
}

// templateExpr renders an expression tree in the canonical String()
// spelling with literals replaced by placeholders. It mirrors each
// node's String method so the template differs from the canonical form
// only at parameterized positions.
func templateExpr(e expr.Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *expr.Lit:
		return "?"
	case *expr.ColRef:
		return n.Name
	case *expr.Binary:
		return fmt.Sprintf("(%s %s %s)", templateExpr(n.L), n.Op, templateExpr(n.R))
	case *expr.Unary:
		return fmt.Sprintf("(%s %s)", n.Op, templateExpr(n.X))
	case *expr.In:
		neg := ""
		if n.Negate {
			neg = " NOT"
		}
		allLit := true
		for _, it := range n.List {
			if _, ok := it.(*expr.Lit); !ok {
				allLit = false
				break
			}
		}
		if allLit {
			// The membership list's arity is a parameter: IN (1, 2) and
			// IN (1, 2, 3) are the same shape with different constants.
			return fmt.Sprintf("(%s%s IN (?))", templateExpr(n.X), neg)
		}
		parts := make([]string, len(n.List))
		for i, it := range n.List {
			parts[i] = templateExpr(it)
		}
		return fmt.Sprintf("(%s%s IN (%s))", templateExpr(n.X), neg, strings.Join(parts, ", "))
	case *expr.Call:
		switch n.Name {
		case "LIKE":
			if len(n.Args) == 2 {
				return fmt.Sprintf("(%s LIKE %s)", templateExpr(n.Args[0]), templateExpr(n.Args[1]))
			}
		case "ISNULL":
			if len(n.Args) == 1 {
				return fmt.Sprintf("(%s IS NULL)", templateExpr(n.Args[0]))
			}
		case "ISNOTNULL":
			if len(n.Args) == 1 {
				return fmt.Sprintf("(%s IS NOT NULL)", templateExpr(n.Args[0]))
			}
		}
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = templateExpr(a)
		}
		return fmt.Sprintf("%s(%s)", n.Name, strings.Join(parts, ", "))
	case *AggExpr:
		arg := "*"
		if !n.Star && n.Arg != nil {
			arg = templateExpr(n.Arg)
		}
		if n.Distinct {
			arg = "DISTINCT " + arg
		}
		if n.Func == AggPercentile {
			// The quantile selects which statistic is computed — shape,
			// like the function name, not a predicate constant.
			return fmt.Sprintf("%s(%s, %g)", n.Func, arg, n.Param)
		}
		return fmt.Sprintf("%s(%s)", n.Func, arg)
	default:
		// Unknown node kinds keep their canonical spelling; fingerprinting
		// must stay total even if the expression grammar grows.
		return e.String()
	}
}
