package sql

import (
	"fmt"
	"strings"
)

// FormatExpr renders an expression back to SQL text. The output re-parses
// to an equivalent tree; it is used for catalog listings and CHECK
// constraint error messages.
func FormatExpr(e Expr) string {
	switch x := e.(type) {
	case *Lit:
		switch x.Kind {
		case "string":
			return "'" + strings.ReplaceAll(x.Str, "'", "''") + "'"
		case "number":
			return strings.TrimSuffix(fmt.Sprintf("%g", x.Num), ".0")
		case "null":
			return "NULL"
		case "date":
			return "DATE '" + x.Str + "'"
		}
		return "?"
	case *Path:
		return strings.Join(x.Parts, ".")
	case *Call:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = FormatExpr(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *CastMultiset:
		return "CAST(MULTISET(" + FormatSelect(x.Sub) + ") AS " + x.TypeName + ")"
	case *Binary:
		side := formatOperand
		if x.Op == "AND" || x.Op == "OR" {
			side = FormatExpr // their operands may be predicates and NOT
		}
		return "(" + side(x.L) + " " + x.Op + " " + side(x.R) + ")"
	case *Unary:
		if x.Op == "NOT" {
			return "NOT " + FormatExpr(x.E)
		}
		inner := formatOperand(x.E)
		if strings.HasPrefix(inner, "-") {
			inner = "(" + inner + ")" // "--" would open a comment
		}
		return x.Op + inner
	case *IsNull:
		if x.Not {
			return formatOperand(x.E) + " IS NOT NULL"
		}
		return formatOperand(x.E) + " IS NULL"
	case *Exists:
		return "EXISTS (" + FormatSelect(x.Sub) + ")"
	default:
		return "?"
	}
}

// formatOperand renders e where the grammar takes an operand of a
// comparison, of || or of unary minus: IS NULL and NOT bind looser than
// those and are parenthesized (a Binary parenthesizes itself).
func formatOperand(e Expr) string {
	s := FormatExpr(e)
	switch x := e.(type) {
	case *IsNull:
		return "(" + s + ")"
	case *Unary:
		if x.Op == "NOT" {
			return "(" + s + ")"
		}
	}
	return s
}

// FormatSelect renders a SELECT statement back to SQL text.
func FormatSelect(s *SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(FormatExpr(item.Expr))
		if item.Alias != "" {
			sb.WriteString(" AS " + item.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, f := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		if f.Unnest != nil {
			sb.WriteString("TABLE(" + FormatExpr(f.Unnest) + ")")
		} else {
			sb.WriteString(f.Table)
		}
		if f.Alias != "" {
			sb.WriteString(" " + f.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + FormatExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(e))
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	return sb.String()
}
