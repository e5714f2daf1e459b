// Package sqlsem is the sqlsemroute fixture's miniature of the shared value
// layer: the nullable Value type the executor fixtures hold. The package is
// not marked, so its own kernels may compare fields freely.
package sqlsem

// Kind discriminates the value representations; KindNull marks SQL NULL.
type Kind int

const (
	KindNull Kind = iota
	KindInt
	KindFloat
)

// Value is the nullable SQL value (a miniature of the real sqlsem.Value).
type Value struct {
	Kind Kind
	I    int64
	F    float64
}

// Bool collapses NULL to false — legitimate only at a predicate consumer.
func (v Value) Bool() bool { return v.Kind == KindInt && v.I != 0 }

// Equal is a kernel: raw field comparison is its job.
func (v Value) Equal(b Value) bool { return v.Kind != KindNull && v == b }
