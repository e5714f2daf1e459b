package workload

// All returns every workload query keyed by workload name.
func All() map[string][]Query {
	return map[string][]Query{
		"tpch":       TPCH(),
		"ssb":        SSB(),
		"airtraffic": Airtraffic(),
	}
}
