package datagen

import (
	"fmt"

	"sqalpel/internal/engine"
	"sqalpel/internal/sqlsem"
)

// FuzzOptions parameterise the NULL-rich data set the differential fuzzer
// (internal/fuzzdiff) runs against. Unlike the benchmark schemas, whose
// columns are almost entirely non-NULL, every non-key column here carries a
// substantial NULL fraction so ternary-logic divergences between engines
// cannot hide behind clean data.
type FuzzOptions struct {
	// Rows is the size of the fact table; zero selects 400.
	Rows int
	// Seed makes the data set reproducible; zero selects the default seed.
	Seed uint64
}

// fuzzNullRate is the probability of each nullable slot being NULL.
const fuzzNullRate = 0.3

// fuzzWords is the string domain: deliberately overlapping prefixes and
// suffixes so LIKE patterns split the data non-trivially.
var fuzzWords = []string{
	"alpha", "alto", "beta", "bravo", "gamma", "golf", "delta", "dora",
	"echo", "epsilon", "lima", "limit",
}

// fuzzLabels is the dimension-table label domain.
var fuzzLabels = []string{"north", "south", "east", "west", "nowhere"}

// Fuzz generates the nullable-rich database the grammar-driven differential
// fuzzer explores: a fact table t (nullable int/float/string/date columns
// plus non-NULL id and join key) and a small dimension table dim with a
// nullable label. Deterministic in (Rows, Seed).
func Fuzz(opts FuzzOptions) *engine.Database {
	if opts.Rows <= 0 {
		opts.Rows = 400
	}
	r := newRNG(opts.Seed)
	db := engine.NewDatabase(fmt.Sprintf("fuzz-%d", opts.Rows))

	nullable := func(v engine.Value) engine.Value {
		if r.Float() < fuzzNullRate {
			return sqlsem.Null()
		}
		return v
	}

	baseDate := sqlsem.MustParseDate("1997-01-01")

	t := engine.NewTable("t",
		engine.Column{Name: "id", Type: engine.TypeInt},
		engine.Column{Name: "k", Type: engine.TypeInt},
		engine.Column{Name: "a", Type: engine.TypeInt},
		engine.Column{Name: "b", Type: engine.TypeInt},
		engine.Column{Name: "f", Type: engine.TypeFloat},
		engine.Column{Name: "s", Type: engine.TypeString},
		engine.Column{Name: "d", Type: engine.TypeDate},
		engine.Column{Name: "g", Type: engine.TypeInt},
	)
	for i := 0; i < opts.Rows; i++ {
		t.MustAppendRow(
			sqlsem.NewInt(int64(i+1)),
			sqlsem.NewInt(int64(r.Intn(8))),
			nullable(sqlsem.NewInt(int64(r.Intn(10)))),
			nullable(sqlsem.NewInt(int64(r.Range(-50, 50)))),
			nullable(sqlsem.NewFloat(float64(r.Range(0, 2000))/10)),
			nullable(sqlsem.NewString(r.Pick(fuzzWords))),
			nullable(sqlsem.NewDate(baseDate+int64(r.Intn(4*365)))),
			nullable(sqlsem.NewInt(int64(r.Intn(5)))),
		)
	}
	db.AddTable(t)

	dim := engine.NewTable("dim",
		engine.Column{Name: "dk", Type: engine.TypeInt},
		engine.Column{Name: "label", Type: engine.TypeString},
		engine.Column{Name: "w", Type: engine.TypeInt},
	)
	for k := 0; k < 8; k++ {
		dim.MustAppendRow(
			sqlsem.NewInt(int64(k)),
			nullable(sqlsem.NewString(fuzzLabels[k%len(fuzzLabels)])),
			nullable(sqlsem.NewInt(int64(k*k))),
		)
	}
	db.AddTable(dim)
	return db
}
