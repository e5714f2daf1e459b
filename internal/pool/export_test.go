package pool

// Entry returns the entry with the given id, or nil.
func (p *Pool) Entry(id int) *Entry {
	if id < 1 || id > len(p.entries) {
		return nil
	}
	return p.entries[id-1]
}
