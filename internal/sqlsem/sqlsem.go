// Package sqlsem is the single source of truth for the SQL semantics every
// execution paradigm must agree on bit for bit — a leaf package the
// interpreters of internal/engine and the typed executor of internal/vexec
// both import. It holds two things. The one SQL scalar (value.go,
// kernels.go): the Value representation with its kind enum, truthiness,
// comparison, hash-key encoding, arithmetic, date handling, LIKE matching,
// CAST, SUBSTRING, the scalar functions and numeric-literal parsing, one
// kernel per operation — a paradigm contributes only how it drives them
// (per row, per vector, per closure). And SQL's three-valued (ternary)
// logic (this file): all executors route their boolean connectives,
// comparisons, LIKE, IN and BETWEEN through the truth tables defined here,
// so the engines cannot drift apart on NULL handling.
//
// The contract, in one paragraph: inside an expression NULL means UNKNOWN
// and propagates through comparisons, LIKE, NOT, AND, OR, BETWEEN and IN
// exactly as the SQL standard prescribes (NOT UNKNOWN = UNKNOWN,
// UNKNOWN AND FALSE = FALSE, UNKNOWN OR TRUE = TRUE, everything else
// involving UNKNOWN stays UNKNOWN). Only the *consumers* of a predicate —
// WHERE/HAVING filters, join conditions and CASE WHEN arms — collapse
// UNKNOWN to "row rejected" / "arm not taken"; that collapse happens at the
// filter, never inside the expression, so a projected predicate surfaces as
// NULL while the same predicate in a WHERE clause merely drops the row.
package sqlsem

// Tri is a three-valued logic value: True, False or Unknown (SQL NULL).
type Tri uint8

// The three truth values. Unknown is the zero value on purpose: a Tri
// derived from a NULL slot without further work is already correct.
const (
	Unknown Tri = iota
	False
	True
)

func (t Tri) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// Of lifts a two-valued boolean into the ternary domain.
func Of(b bool) Tri {
	if b {
		return True
	}
	return False
}

// Accept is the predicate-consumer collapse: filters, join conditions and
// CASE WHEN arms take a row/arm only when the predicate is definitely True;
// False and Unknown both reject. This is the only place UNKNOWN legally
// becomes two-valued.
func (t Tri) Accept() bool { return t == True }

// Not is ternary negation: NOT UNKNOWN = UNKNOWN.
func Not(t Tri) Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// And is ternary conjunction: FALSE dominates, otherwise UNKNOWN taints.
//
//	AND      | TRUE    FALSE  UNKNOWN
//	TRUE     | TRUE    FALSE  UNKNOWN
//	FALSE    | FALSE   FALSE  FALSE
//	UNKNOWN  | UNKNOWN FALSE  UNKNOWN
func And(a, b Tri) Tri {
	if a == False || b == False {
		return False
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return True
}

// Or is ternary disjunction: TRUE dominates, otherwise UNKNOWN taints.
//
//	OR       | TRUE   FALSE   UNKNOWN
//	TRUE     | TRUE   TRUE    TRUE
//	FALSE    | TRUE   FALSE   UNKNOWN
//	UNKNOWN  | TRUE   UNKNOWN UNKNOWN
func Or(a, b Tri) Tri {
	if a == True || b == True {
		return True
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return False
}

// Compare maps a comparison operator and a three-way comparison outcome
// (c < 0, c == 0, c > 0 as from a compare function that only ran because
// both operands were non-NULL) to a truth value. Callers must route NULL
// operands to Unknown instead of calling this; CompareValues does both.
// An operator outside the SQL six is an internal invariant violation and
// panics — as the single source of truth, silently returning FALSE here
// would make every engine uniformly wrong, which the differential fuzzer
// (agreement-based) could never detect.
func Compare(op string, c int) Tri {
	var ok bool
	switch op {
	case "=":
		ok = c == 0
	case "<>":
		ok = c != 0
	case "<":
		ok = c < 0
	case "<=":
		ok = c <= 0
	case ">":
		ok = c > 0
	case ">=":
		ok = c >= 0
	default:
		panic("sqlsem: unknown comparison operator " + op)
	}
	return Of(ok)
}

// CompareValues is the full comparison semantics over two values: any NULL
// operand makes the comparison UNKNOWN, otherwise the operator is applied to
// their ordering (Value.Compare).
func CompareValues(op string, a, b Value) Tri {
	if a.IsNull() || b.IsNull() {
		return Unknown
	}
	return Compare(op, a.Compare(b))
}

// Like is the LIKE / NOT LIKE semantics: a NULL string or NULL pattern
// yields UNKNOWN (and NOT UNKNOWN stays UNKNOWN); otherwise the match
// result, negated for NOT LIKE.
func Like(eitherNull, matched, negate bool) Tri {
	if eitherNull {
		return Unknown
	}
	if negate {
		return Of(!matched)
	}
	return Of(matched)
}

// In is the IN-list / IN-subquery semantics, derived from the expansion
// x IN (a, b, …) ≡ x = a OR x = b OR …:
//
//   - an empty list (only possible with sub-queries) is FALSE even for a
//     NULL probe — the empty OR is FALSE;
//   - a NULL probe against a non-empty list is UNKNOWN;
//   - a found match is TRUE regardless of NULLs elsewhere in the list;
//   - no match with a NULL in the list is UNKNOWN (the x = NULL disjunct);
//   - otherwise FALSE.
//
// NOT IN is Not(In(...)), applied by the caller.
func In(exprNull, found, listHasNull, listEmpty bool) Tri {
	if listEmpty {
		return False
	}
	if exprNull {
		return Unknown
	}
	if found {
		return True
	}
	if listHasNull {
		return Unknown
	}
	return False
}

// Between is the BETWEEN semantics, derived from the expansion
// x BETWEEN lo AND hi ≡ x >= lo AND x <= hi under ternary AND — so a NULL
// bound can still produce a definite FALSE when the other bound already
// fails. NOT BETWEEN negates ternarily.
func Between(geLo, leHi Tri, negate bool) Tri {
	t := And(geLo, leHi)
	if negate {
		return Not(t)
	}
	return t
}
