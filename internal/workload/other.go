package workload

// NationSampleGrammar is the sample sqalpel grammar of the paper's Figure 1:
// seven rules describing a small query space over the TPC-H nation table.
const NationSampleGrammar = `query:
	SELECT ${projection} FROM ${l_tables} $[l_filter]
projection:
	${l_count}
	${l_column} ${columnlist}*
l_tables:
	nation
columnlist:
	, ${l_column}
l_column:
	n_nationkey
	n_name
	n_regionkey
	n_comment
l_count:
	count(*)
l_filter:
	WHERE n_name = 'BRAZIL'
`

// NationBaselineQuery is the baseline query the Figure 1 grammar was derived
// from: the full projection with the filter applied.
const NationBaselineQuery = `SELECT n_nationkey, n_name, n_regionkey, n_comment FROM nation WHERE n_name = 'BRAZIL'`

// ssb holds a representative subset of the Star Schema Benchmark query
// flights (one query per flight), phrased against the SSB star schema
// (lineorder fact table with date, customer, supplier and part dimensions).
var ssb = []Query{
	{
		ID:   "SSB-Q1.1",
		Name: "Revenue for a year and discount band",
		SQL: `SELECT sum(lo_extendedprice * lo_discount) AS revenue
FROM lineorder, dates
WHERE lo_orderdate = d_datekey
  AND d_year = 1993
  AND lo_discount BETWEEN 1 AND 3
  AND lo_quantity < 25`,
	},
	{
		ID:   "SSB-Q2.1",
		Name: "Revenue by brand and year for a part category",
		SQL: `SELECT sum(lo_revenue) AS revenue, d_year, p_brand
FROM lineorder, dates, part, supplier
WHERE lo_orderdate = d_datekey
  AND lo_partkey = p_partkey
  AND lo_suppkey = s_suppkey
  AND p_category = 'MFGR#12'
  AND s_region = 'AMERICA'
GROUP BY d_year, p_brand
ORDER BY d_year, p_brand`,
	},
	{
		ID:   "SSB-Q3.1",
		Name: "Revenue by customer and supplier nation",
		SQL: `SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue
FROM customer, lineorder, supplier, dates
WHERE lo_custkey = c_custkey
  AND lo_suppkey = s_suppkey
  AND lo_orderdate = d_datekey
  AND c_region = 'ASIA'
  AND s_region = 'ASIA'
  AND d_year >= 1992 AND d_year <= 1997
GROUP BY c_nation, s_nation, d_year
ORDER BY d_year, revenue DESC`,
	},
	{
		ID:   "SSB-Q4.1",
		Name: "Profit by year and customer nation",
		SQL: `SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit
FROM dates, customer, supplier, part, lineorder
WHERE lo_custkey = c_custkey
  AND lo_suppkey = s_suppkey
  AND lo_partkey = p_partkey
  AND lo_orderdate = d_datekey
  AND c_region = 'AMERICA'
  AND s_region = 'AMERICA'
  AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2')
GROUP BY d_year, c_nation
ORDER BY d_year, c_nation`,
	},
}

// SSB returns the Star Schema Benchmark query subset.
//
//lint:api the SSB workload the paper's benchmarks and the engine goldens run
func SSB() []Query {
	out := make([]Query, len(ssb))
	copy(out, ssb)
	return out
}

// airtraffic holds analytics queries over a flights table in the style of the
// well known airtraffic (on-time performance) data set the paper mentions as
// one of its bootstrap projects.
var airtraffic = []Query{
	{
		ID:   "AIR-Q1",
		Name: "Flights and average delay per carrier",
		SQL: `SELECT carrier, count(*) AS flights, avg(dep_delay) AS avg_dep_delay
FROM flights
WHERE fl_year = 2015
GROUP BY carrier
ORDER BY avg_dep_delay DESC`,
	},
	{
		ID:   "AIR-Q2",
		Name: "Busiest routes",
		SQL: `SELECT origin, dest, count(*) AS flights, avg(distance) AS avg_distance
FROM flights
WHERE cancelled = 0
GROUP BY origin, dest
ORDER BY flights DESC
LIMIT 25`,
	},
	{
		ID:   "AIR-Q3",
		Name: "Delay propagation for long flights",
		SQL: `SELECT carrier, fl_month,
  sum(CASE WHEN arr_delay > 15 THEN 1 ELSE 0 END) AS delayed,
  count(*) AS flights
FROM flights
WHERE distance > 1000
  AND dep_delay IS NOT NULL
GROUP BY carrier, fl_month
ORDER BY carrier, fl_month`,
	},
}

// Airtraffic returns the airtraffic analytics queries.
//
//lint:api the airtraffic workload the paper's benchmarks and the engine goldens run
func Airtraffic() []Query {
	out := make([]Query, len(airtraffic))
	copy(out, airtraffic)
	return out
}
