package trace

// OperatorIDs returns the set of operator ids in the document; the
// differential tests assert every engine's span ids are a subset.
func (d *PlanDoc) OperatorIDs() map[string]bool {
	ids := make(map[string]bool, len(d.Operators))
	for _, op := range d.Operators {
		ids[op.ID] = true
	}
	return ids
}
