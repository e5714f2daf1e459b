package vexec

// DictFor returns the dictionary of the named column, or nil when the
// column is absent or stored raw.
func (t *Table) DictFor(name string) *Dictionary {
	for _, c := range t.Cols {
		if c.Name == name {
			return c.Vec.Dict
		}
	}
	return nil
}

// Len returns the number of distinct values in the dictionary.
func (d *Dictionary) Len() int { return len(d.Vals) }
