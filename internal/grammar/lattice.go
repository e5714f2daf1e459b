package grammar

import "sync"

// lattice orders an enumeration's templates by the partial order the expand
// and prune morphs walk: template b lies directly above a when it has one
// lexical component more and at least a's count of every class. The size
// buckets are built once by Enumerate; the neighbour lists of a template are
// computed on first request — one pass over the adjacent bucket — and kept,
// so a pool that morphs the same few sources again and again never rescans
// the template set, and an enumeration that is only counted pays nothing.
type lattice struct {
	bySize [][]*Template // bySize[n]: templates of Size() n, enumeration order

	mu       sync.Mutex
	up, down [][]*Template // per ordinal; nil = not computed yet
}

// bucket fills the size buckets.
func (l *lattice) bucket(templates []*Template) {
	for _, t := range templates {
		for len(l.bySize) <= t.size {
			l.bySize = append(l.bySize, nil)
		}
		l.bySize[t.size] = append(l.bySize[t.size], t)
	}
}

// Expansions returns the templates one lexical component larger than t
// whose class counts cover t's, in enumeration order — the targets of the
// expand morph. The slice is shared; callers must not modify it.
func (e *Enumeration) Expansions(t *Template) []*Template { return e.neighbours(t, +1) }

// Reductions returns the templates one lexical component smaller than t
// whose class counts t's cover, in enumeration order — the targets of the
// prune morph. The slice is shared; callers must not modify it.
func (e *Enumeration) Reductions(t *Template) []*Template { return e.neighbours(t, -1) }

func (e *Enumeration) neighbours(t *Template, delta int) []*Template {
	if t.ord >= len(e.Templates) || e.Templates[t.ord] != t {
		return nil // not a template of this enumeration
	}
	l := &e.lat
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.up == nil {
		l.up = make([][]*Template, len(e.Templates))
		l.down = make([][]*Template, len(e.Templates))
	}
	memo := l.up
	if delta < 0 {
		memo = l.down
	}
	if memo[t.ord] == nil {
		found := []*Template{} // non-nil: an empty list is an answer too
		if size := t.size + delta; size >= 0 && size < len(l.bySize) {
			for _, c := range l.bySize[size] {
				if delta > 0 && covers(c.Counts, t.Counts) || delta < 0 && covers(t.Counts, c.Counts) {
					found = append(found, c)
				}
			}
		}
		memo[t.ord] = found
	}
	return memo[t.ord]
}

// covers reports whether counts a dominate counts b (a[c] >= b[c] for all c).
func covers(a, b map[string]int) bool {
	//lint:ordered a for-all test does not observe iteration order
	for c, n := range b {
		if a[c] < n {
			return false
		}
	}
	return true
}
