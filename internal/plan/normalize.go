package plan

import "strings"

// Normalize canonicalises a SQL text for use as a cache key: whitespace runs
// outside single-quoted string literals collapse to a single space, and
// leading/trailing whitespace and a trailing semicolon are dropped. Letter
// case and everything inside quotes are preserved — string literals are
// case- and space-significant, so touching them would conflate semantically
// different queries. The measurement scheduler's result cache keys on it,
// so a morph whose text collapses onto a measured variant shares the
// measurement; the plan cache keys on the text as written (see Key).
func Normalize(sql string) string {
	var sb strings.Builder
	sb.Grow(len(sql))
	space := false
	inString := false
	for _, r := range sql {
		if r == '\'' {
			inString = !inString
		}
		if !inString && (r == ' ' || r == '\t' || r == '\n' || r == '\r') {
			space = true
			continue
		}
		if space && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		space = false
		sb.WriteRune(r)
	}
	out := sb.String()
	if !inString {
		out = strings.TrimSuffix(out, ";")
	}
	return strings.TrimSpace(out)
}
