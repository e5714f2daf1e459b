package datagen

import (
	"fmt"

	"sqalpel/internal/engine"
	"sqalpel/internal/sqlsem"
)

// SSBOptions parameterise the Star Schema Benchmark generator.
type SSBOptions struct {
	// ScaleFactor follows the SSB convention: SF 1 is roughly 6 million
	// lineorder rows.
	ScaleFactor float64
	Seed        uint64
}

func (o SSBOptions) scaled(n, min int) int {
	v := int(float64(n) * o.ScaleFactor)
	if v < min {
		return min
	}
	return v
}

var ssbRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// SSB generates a Star Schema Benchmark database: a lineorder fact table
// with dates, customer, supplier and part dimension tables.
func SSB(opts SSBOptions) *engine.Database {
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 0.001
	}
	r := newRNG(opts.Seed + 7)
	db := engine.NewDatabase(fmt.Sprintf("ssb-sf%g", opts.ScaleFactor))

	// dates dimension: 7 years of days (1992-1998).
	dates := engine.NewTable("dates",
		engine.Column{Name: "d_datekey", Type: engine.TypeInt},
		engine.Column{Name: "d_date", Type: engine.TypeDate},
		engine.Column{Name: "d_year", Type: engine.TypeInt},
		engine.Column{Name: "d_month", Type: engine.TypeInt},
		engine.Column{Name: "d_weeknuminyear", Type: engine.TypeInt},
	)
	start := sqlsem.MustParseDate("1992-01-01")
	end := sqlsem.MustParseDate("1998-12-31")
	var dateKeys []int64
	for d := start; d <= end; d++ {
		y, m, day := sqlsem.DateParts(d)
		key := int64(y*10000 + m*100 + day)
		dateKeys = append(dateKeys, key)
		dates.MustAppendRow(
			sqlsem.NewInt(key),
			sqlsem.NewDate(d),
			sqlsem.NewInt(int64(y)),
			sqlsem.NewInt(int64(m)),
			sqlsem.NewInt(int64((d-start)/7%53)+1),
		)
	}
	db.AddTable(dates)

	// customer dimension.
	numCustomer := opts.scaled(30000, 15)
	customer := engine.NewTable("customer",
		engine.Column{Name: "c_custkey", Type: engine.TypeInt},
		engine.Column{Name: "c_name", Type: engine.TypeString},
		engine.Column{Name: "c_city", Type: engine.TypeString},
		engine.Column{Name: "c_nation", Type: engine.TypeString},
		engine.Column{Name: "c_region", Type: engine.TypeString},
	)
	for i := 1; i <= numCustomer; i++ {
		region := r.Pick(ssbRegions)
		nation := nations[r.Intn(len(nations))].name
		customer.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(fmt.Sprintf("Customer#%08d", i)),
			sqlsem.NewString(fmt.Sprintf("%s %d", nation[:min(5, len(nation))], r.Range(0, 9))),
			sqlsem.NewString(nation),
			sqlsem.NewString(region),
		)
	}
	db.AddTable(customer)

	// supplier dimension.
	numSupplier := opts.scaled(2000, 10)
	supplier := engine.NewTable("supplier",
		engine.Column{Name: "s_suppkey", Type: engine.TypeInt},
		engine.Column{Name: "s_name", Type: engine.TypeString},
		engine.Column{Name: "s_city", Type: engine.TypeString},
		engine.Column{Name: "s_nation", Type: engine.TypeString},
		engine.Column{Name: "s_region", Type: engine.TypeString},
	)
	for i := 1; i <= numSupplier; i++ {
		region := r.Pick(ssbRegions)
		nation := nations[r.Intn(len(nations))].name
		supplier.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(fmt.Sprintf("Supplier#%08d", i)),
			sqlsem.NewString(fmt.Sprintf("%s %d", nation[:min(5, len(nation))], r.Range(0, 9))),
			sqlsem.NewString(nation),
			sqlsem.NewString(region),
		)
	}
	db.AddTable(supplier)

	// part dimension.
	numPart := opts.scaled(200000, 20)
	part := engine.NewTable("part",
		engine.Column{Name: "p_partkey", Type: engine.TypeInt},
		engine.Column{Name: "p_name", Type: engine.TypeString},
		engine.Column{Name: "p_mfgr", Type: engine.TypeString},
		engine.Column{Name: "p_category", Type: engine.TypeString},
		engine.Column{Name: "p_brand", Type: engine.TypeString},
		engine.Column{Name: "p_color", Type: engine.TypeString},
	)
	for i := 1; i <= numPart; i++ {
		mfgr := r.Range(1, 5)
		cat := r.Range(1, 5)
		part.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(r.Pick(partColors)+" "+r.Pick(partColors)),
			sqlsem.NewString(fmt.Sprintf("MFGR#%d", mfgr)),
			sqlsem.NewString(fmt.Sprintf("MFGR#%d%d", mfgr, cat)),
			sqlsem.NewString(fmt.Sprintf("MFGR#%d%d%02d", mfgr, cat, r.Range(1, 40))),
			sqlsem.NewString(r.Pick(partColors)),
		)
	}
	db.AddTable(part)

	// lineorder fact table.
	numLineorder := opts.scaled(6000000, 100)
	lineorder := engine.NewTable("lineorder",
		engine.Column{Name: "lo_orderkey", Type: engine.TypeInt},
		engine.Column{Name: "lo_linenumber", Type: engine.TypeInt},
		engine.Column{Name: "lo_custkey", Type: engine.TypeInt},
		engine.Column{Name: "lo_partkey", Type: engine.TypeInt},
		engine.Column{Name: "lo_suppkey", Type: engine.TypeInt},
		engine.Column{Name: "lo_orderdate", Type: engine.TypeInt},
		engine.Column{Name: "lo_quantity", Type: engine.TypeInt},
		engine.Column{Name: "lo_extendedprice", Type: engine.TypeFloat},
		engine.Column{Name: "lo_discount", Type: engine.TypeInt},
		engine.Column{Name: "lo_revenue", Type: engine.TypeFloat},
		engine.Column{Name: "lo_supplycost", Type: engine.TypeFloat},
	)
	for i := 1; i <= numLineorder; i++ {
		price := float64(r.Range(100, 100000)) / 10
		discount := r.Range(0, 10)
		lineorder.MustAppendRow(
			sqlsem.NewInt(int64(i/4+1)),
			sqlsem.NewInt(int64(i%7+1)),
			sqlsem.NewInt(int64(r.Range(1, numCustomer))),
			sqlsem.NewInt(int64(r.Range(1, numPart))),
			sqlsem.NewInt(int64(r.Range(1, numSupplier))),
			sqlsem.NewInt(dateKeys[r.Intn(len(dateKeys))]),
			sqlsem.NewInt(int64(r.Range(1, 50))),
			sqlsem.NewFloat(price),
			sqlsem.NewInt(int64(discount)),
			sqlsem.NewFloat(price*(1-float64(discount)/100)),
			sqlsem.NewFloat(price*0.6),
		)
	}
	db.AddTable(lineorder)
	return db
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
