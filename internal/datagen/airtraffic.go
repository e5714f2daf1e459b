package datagen

import (
	"fmt"

	"sqalpel/internal/engine"
	"sqalpel/internal/sqlsem"
)

// AirtrafficOptions parameterise the airtraffic (on-time performance) data
// generator, the third bootstrap project the paper mentions.
type AirtrafficOptions struct {
	// Flights is the number of flight rows to generate.
	Flights int
	Seed    uint64
}

var (
	carriers = []string{"AA", "DL", "UA", "WN", "B6", "AS", "NK", "F9", "HA", "VX"}
	airports = []string{"ATL", "LAX", "ORD", "DFW", "DEN", "JFK", "SFO", "SEA", "LAS", "MCO", "EWR", "CLT", "PHX", "IAH", "MIA", "BOS", "MSP", "FLL", "DTW", "PHL", "LGA", "BWI", "SLC", "SAN", "IAD", "DCA", "MDW", "TPA", "PDX", "HNL"}
)

// Airtraffic generates a flights table mimicking the on-time performance
// data set (carrier, origin, destination, delays, distance, cancellations).
func Airtraffic(opts AirtrafficOptions) *engine.Database {
	if opts.Flights <= 0 {
		opts.Flights = 5000
	}
	r := newRNG(opts.Seed + 99)
	db := engine.NewDatabase(fmt.Sprintf("airtraffic-%d", opts.Flights))

	flights := engine.NewTable("flights",
		engine.Column{Name: "fl_year", Type: engine.TypeInt},
		engine.Column{Name: "fl_month", Type: engine.TypeInt},
		engine.Column{Name: "fl_day", Type: engine.TypeInt},
		engine.Column{Name: "fl_date", Type: engine.TypeDate},
		engine.Column{Name: "carrier", Type: engine.TypeString},
		engine.Column{Name: "flight_num", Type: engine.TypeInt},
		engine.Column{Name: "origin", Type: engine.TypeString},
		engine.Column{Name: "dest", Type: engine.TypeString},
		engine.Column{Name: "dep_delay", Type: engine.TypeFloat},
		engine.Column{Name: "arr_delay", Type: engine.TypeFloat},
		engine.Column{Name: "distance", Type: engine.TypeInt},
		engine.Column{Name: "cancelled", Type: engine.TypeInt},
	)
	start := sqlsem.MustParseDate("2015-01-01")
	for i := 0; i < opts.Flights; i++ {
		day := start + int64(r.Intn(365))
		y, m, d := sqlsem.DateParts(day)
		origin := r.Pick(airports)
		dest := r.Pick(airports)
		for dest == origin {
			dest = r.Pick(airports)
		}
		cancelled := 0
		if r.Intn(100) < 2 {
			cancelled = 1
		}
		depDelay := sqlsem.NewFloat(float64(r.Range(-10, 180)) * r.Float())
		arrDelay := sqlsem.NewFloat(depDelay.Float() + float64(r.Range(-20, 40)))
		if cancelled == 1 {
			depDelay = sqlsem.Null()
			arrDelay = sqlsem.Null()
		}
		flights.MustAppendRow(
			sqlsem.NewInt(int64(y)),
			sqlsem.NewInt(int64(m)),
			sqlsem.NewInt(int64(d)),
			sqlsem.NewDate(day),
			sqlsem.NewString(r.Pick(carriers)),
			sqlsem.NewInt(int64(r.Range(1, 9999))),
			sqlsem.NewString(origin),
			sqlsem.NewString(dest),
			depDelay,
			arrDelay,
			sqlsem.NewInt(int64(r.Range(100, 3000))),
			sqlsem.NewInt(int64(cancelled)),
		)
	}
	db.AddTable(flights)
	return db
}

// NamedDatabase builds one of the bootstrap databases by name:
// "tpch" (scale via sf), "ssb" (scale via sf), "airtraffic" (sf is the
// number of thousands of flights) or "fuzz" (sf is the number of thousands
// of NULL-rich fact rows).
func NamedDatabase(name string, sf float64) (*engine.Database, error) {
	switch name {
	case "tpch":
		return TPCH(TPCHOptions{ScaleFactor: sf}), nil
	case "ssb":
		return SSB(SSBOptions{ScaleFactor: sf}), nil
	case "airtraffic":
		return Airtraffic(AirtrafficOptions{Flights: int(sf * 1000)}), nil
	case "fuzz":
		return Fuzz(FuzzOptions{Rows: int(sf * 1000)}), nil
	default:
		return nil, fmt.Errorf("unknown data set %q (want tpch, ssb, airtraffic or fuzz)", name)
	}
}
