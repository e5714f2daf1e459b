package datagen

import (
	"fmt"

	"sqalpel/internal/engine"
	"sqalpel/internal/sqlsem"
)

// TPCHOptions parameterise the TPC-H data generator.
type TPCHOptions struct {
	// ScaleFactor follows the TPC-H convention: SF 1 is roughly 6 million
	// lineitem rows. Fractional scale factors scale every table linearly
	// (region and nation keep their fixed sizes).
	ScaleFactor float64
	// Seed makes the data set reproducible; zero selects the default seed.
	Seed uint64
}

// Scaled returns n scaled by the scale factor, with a floor of min.
func (o TPCHOptions) scaled(n int, min int) int {
	v := int(float64(n) * o.ScaleFactor)
	if v < min {
		return min
	}
	return v
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"EGYPT", 4},
	{"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3}, {"INDIA", 2}, {"INDONESIA", 2},
	{"IRAN", 4}, {"IRAQ", 4}, {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0},
	{"MOROCCO", 0}, {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var (
	mktSegments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes       = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	shipInstructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers      = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG", "JUMBO BAG", "WRAP CASE"}
	typeSyllable1   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2   = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3   = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	partColors      = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow"}
	commentWords    = []string{"carefully", "quickly", "furiously", "slyly", "blithely", "regular", "express", "bold", "final", "ironic", "pending", "silent", "even", "special", "requests", "deposits", "accounts", "packages", "instructions", "theodolites", "pinto", "beans", "foxes", "ideas", "dependencies", "excuses", "platelets", "Customer", "Complaints", "unusual", "courts"}
)

func comment(r *rng, words int) string {
	out := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			out += " "
		}
		out += r.Pick(commentWords)
	}
	return out
}

func phone(r *rng, nationKey int) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nationKey, r.Range(100, 999), r.Range(100, 999), r.Range(1000, 9999))
}

// TPCH generates a TPC-H database at the given scale factor.
func TPCH(opts TPCHOptions) *engine.Database {
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 0.001
	}
	r := newRNG(opts.Seed)
	db := engine.NewDatabase(fmt.Sprintf("tpch-sf%g", opts.ScaleFactor))

	// region
	region := engine.NewTable("region",
		engine.Column{Name: "r_regionkey", Type: engine.TypeInt},
		engine.Column{Name: "r_name", Type: engine.TypeString},
		engine.Column{Name: "r_comment", Type: engine.TypeString},
	)
	for i, name := range regions {
		region.MustAppendRow(sqlsem.NewInt(int64(i)), sqlsem.NewString(name), sqlsem.NewString(comment(r, 6)))
	}
	db.AddTable(region)

	// nation
	nation := engine.NewTable("nation",
		engine.Column{Name: "n_nationkey", Type: engine.TypeInt},
		engine.Column{Name: "n_name", Type: engine.TypeString},
		engine.Column{Name: "n_regionkey", Type: engine.TypeInt},
		engine.Column{Name: "n_comment", Type: engine.TypeString},
	)
	for i, n := range nations {
		nation.MustAppendRow(sqlsem.NewInt(int64(i)), sqlsem.NewString(n.name), sqlsem.NewInt(int64(n.region)), sqlsem.NewString(comment(r, 8)))
	}
	db.AddTable(nation)

	// supplier
	numSupplier := opts.scaled(10000, 10)
	supplier := engine.NewTable("supplier",
		engine.Column{Name: "s_suppkey", Type: engine.TypeInt},
		engine.Column{Name: "s_name", Type: engine.TypeString},
		engine.Column{Name: "s_address", Type: engine.TypeString},
		engine.Column{Name: "s_nationkey", Type: engine.TypeInt},
		engine.Column{Name: "s_phone", Type: engine.TypeString},
		engine.Column{Name: "s_acctbal", Type: engine.TypeFloat},
		engine.Column{Name: "s_comment", Type: engine.TypeString},
	)
	for i := 1; i <= numSupplier; i++ {
		nk := r.Intn(len(nations))
		c := comment(r, 8)
		// ~1% of suppliers carry the Customer Complaints marker used by Q16.
		if r.Intn(100) == 0 {
			c = "the Customer has Complaints about " + c
		}
		supplier.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(fmt.Sprintf("Supplier#%09d", i)),
			sqlsem.NewString(fmt.Sprintf("addr %d %s", r.Range(1, 999), comment(r, 2))),
			sqlsem.NewInt(int64(nk)),
			sqlsem.NewString(phone(r, nk)),
			sqlsem.NewFloat(float64(r.Range(-99999, 999999))/100),
			sqlsem.NewString(c),
		)
	}
	db.AddTable(supplier)

	// part
	numPart := opts.scaled(200000, 20)
	part := engine.NewTable("part",
		engine.Column{Name: "p_partkey", Type: engine.TypeInt},
		engine.Column{Name: "p_name", Type: engine.TypeString},
		engine.Column{Name: "p_mfgr", Type: engine.TypeString},
		engine.Column{Name: "p_brand", Type: engine.TypeString},
		engine.Column{Name: "p_type", Type: engine.TypeString},
		engine.Column{Name: "p_size", Type: engine.TypeInt},
		engine.Column{Name: "p_container", Type: engine.TypeString},
		engine.Column{Name: "p_retailprice", Type: engine.TypeFloat},
		engine.Column{Name: "p_comment", Type: engine.TypeString},
	)
	for i := 1; i <= numPart; i++ {
		mfgr := r.Range(1, 5)
		brand := fmt.Sprintf("Brand#%d%d", mfgr, r.Range(1, 5))
		ptype := r.Pick(typeSyllable1) + " " + r.Pick(typeSyllable2) + " " + r.Pick(typeSyllable3)
		name := r.Pick(partColors) + " " + r.Pick(partColors) + " " + r.Pick(partColors) + " " + r.Pick(partColors) + " " + r.Pick(partColors)
		part.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(name),
			sqlsem.NewString(fmt.Sprintf("Manufacturer#%d", mfgr)),
			sqlsem.NewString(brand),
			sqlsem.NewString(ptype),
			sqlsem.NewInt(int64(r.Range(1, 50))),
			sqlsem.NewString(r.Pick(containers)),
			sqlsem.NewFloat(900+float64(i%1000)+float64(r.Intn(100))/100),
			sqlsem.NewString(comment(r, 4)),
		)
	}
	db.AddTable(part)

	// partsupp: 4 suppliers per part.
	partsupp := engine.NewTable("partsupp",
		engine.Column{Name: "ps_partkey", Type: engine.TypeInt},
		engine.Column{Name: "ps_suppkey", Type: engine.TypeInt},
		engine.Column{Name: "ps_availqty", Type: engine.TypeInt},
		engine.Column{Name: "ps_supplycost", Type: engine.TypeFloat},
		engine.Column{Name: "ps_comment", Type: engine.TypeString},
	)
	for p := 1; p <= numPart; p++ {
		for s := 0; s < 4; s++ {
			suppkey := (p+s*(numSupplier/4+1))%numSupplier + 1
			partsupp.MustAppendRow(
				sqlsem.NewInt(int64(p)),
				sqlsem.NewInt(int64(suppkey)),
				sqlsem.NewInt(int64(r.Range(1, 9999))),
				sqlsem.NewFloat(float64(r.Range(100, 100000))/100),
				sqlsem.NewString(comment(r, 6)),
			)
		}
	}
	db.AddTable(partsupp)

	// customer
	numCustomer := opts.scaled(150000, 15)
	customer := engine.NewTable("customer",
		engine.Column{Name: "c_custkey", Type: engine.TypeInt},
		engine.Column{Name: "c_name", Type: engine.TypeString},
		engine.Column{Name: "c_address", Type: engine.TypeString},
		engine.Column{Name: "c_nationkey", Type: engine.TypeInt},
		engine.Column{Name: "c_phone", Type: engine.TypeString},
		engine.Column{Name: "c_acctbal", Type: engine.TypeFloat},
		engine.Column{Name: "c_mktsegment", Type: engine.TypeString},
		engine.Column{Name: "c_comment", Type: engine.TypeString},
	)
	for i := 1; i <= numCustomer; i++ {
		nk := r.Intn(len(nations))
		customer.MustAppendRow(
			sqlsem.NewInt(int64(i)),
			sqlsem.NewString(fmt.Sprintf("Customer#%09d", i)),
			sqlsem.NewString(fmt.Sprintf("addr %d %s", r.Range(1, 999), comment(r, 2))),
			sqlsem.NewInt(int64(nk)),
			sqlsem.NewString(phone(r, nk)),
			sqlsem.NewFloat(float64(r.Range(-99999, 999999))/100),
			sqlsem.NewString(r.Pick(mktSegments)),
			sqlsem.NewString(comment(r, 10)),
		)
	}
	db.AddTable(customer)

	// orders and lineitem
	numOrders := opts.scaled(1500000, 30)
	startDate := sqlsem.MustParseDate("1992-01-01")
	endDate := sqlsem.MustParseDate("1998-08-02")
	dateRange := int(endDate - startDate)

	orders := engine.NewTable("orders",
		engine.Column{Name: "o_orderkey", Type: engine.TypeInt},
		engine.Column{Name: "o_custkey", Type: engine.TypeInt},
		engine.Column{Name: "o_orderstatus", Type: engine.TypeString},
		engine.Column{Name: "o_totalprice", Type: engine.TypeFloat},
		engine.Column{Name: "o_orderdate", Type: engine.TypeDate},
		engine.Column{Name: "o_orderpriority", Type: engine.TypeString},
		engine.Column{Name: "o_clerk", Type: engine.TypeString},
		engine.Column{Name: "o_shippriority", Type: engine.TypeInt},
		engine.Column{Name: "o_comment", Type: engine.TypeString},
	)
	lineitem := engine.NewTable("lineitem",
		engine.Column{Name: "l_orderkey", Type: engine.TypeInt},
		engine.Column{Name: "l_partkey", Type: engine.TypeInt},
		engine.Column{Name: "l_suppkey", Type: engine.TypeInt},
		engine.Column{Name: "l_linenumber", Type: engine.TypeInt},
		engine.Column{Name: "l_quantity", Type: engine.TypeFloat},
		engine.Column{Name: "l_extendedprice", Type: engine.TypeFloat},
		engine.Column{Name: "l_discount", Type: engine.TypeFloat},
		engine.Column{Name: "l_tax", Type: engine.TypeFloat},
		engine.Column{Name: "l_returnflag", Type: engine.TypeString},
		engine.Column{Name: "l_linestatus", Type: engine.TypeString},
		engine.Column{Name: "l_shipdate", Type: engine.TypeDate},
		engine.Column{Name: "l_commitdate", Type: engine.TypeDate},
		engine.Column{Name: "l_receiptdate", Type: engine.TypeDate},
		engine.Column{Name: "l_shipinstruct", Type: engine.TypeString},
		engine.Column{Name: "l_shipmode", Type: engine.TypeString},
		engine.Column{Name: "l_comment", Type: engine.TypeString},
	)

	currentDate := sqlsem.MustParseDate("1995-06-17")
	for o := 1; o <= numOrders; o++ {
		// As in the TPC-H specification, a third of the customers (custkey
		// divisible by three) never place orders; Q13's zero bucket and the
		// NOT EXISTS probe of Q22 depend on them.
		custkey := r.Range(1, numCustomer)
		for custkey%3 == 0 {
			custkey = r.Range(1, numCustomer)
		}
		orderdate := startDate + int64(r.Intn(dateRange-121))
		lines := r.Range(1, 7)
		var totalPrice float64
		allShipped, noneShipped := true, true

		// Lineitems first so the order status and total can be derived.
		type lineRow struct {
			vals []engine.Value
		}
		var lineRows []lineRow
		for ln := 1; ln <= lines; ln++ {
			partkey := r.Range(1, numPart)
			suppkey := (partkey+r.Intn(4)*(numSupplier/4+1))%numSupplier + 1
			quantity := float64(r.Range(1, 50))
			price := (90000 + float64((partkey%20000)*10) + float64(r.Intn(1000))) / 100 * quantity / 10
			discount := float64(r.Intn(11)) / 100
			tax := float64(r.Intn(9)) / 100
			shipdate := orderdate + int64(r.Range(1, 121))
			commitdate := orderdate + int64(r.Range(30, 90))
			receiptdate := shipdate + int64(r.Range(1, 30))
			returnflag := "N"
			if receiptdate <= currentDate {
				if r.Intn(2) == 0 {
					returnflag = "R"
				} else {
					returnflag = "A"
				}
			}
			linestatus := "O"
			if shipdate <= currentDate {
				linestatus = "F"
				noneShipped = false
			} else {
				allShipped = false
			}
			totalPrice += price * (1 - discount) * (1 + tax)
			lineRows = append(lineRows, lineRow{vals: []engine.Value{
				sqlsem.NewInt(int64(o)),
				sqlsem.NewInt(int64(partkey)),
				sqlsem.NewInt(int64(suppkey)),
				sqlsem.NewInt(int64(ln)),
				sqlsem.NewFloat(quantity),
				sqlsem.NewFloat(price),
				sqlsem.NewFloat(discount),
				sqlsem.NewFloat(tax),
				sqlsem.NewString(returnflag),
				sqlsem.NewString(linestatus),
				sqlsem.NewDate(shipdate),
				sqlsem.NewDate(commitdate),
				sqlsem.NewDate(receiptdate),
				sqlsem.NewString(r.Pick(shipInstructs)),
				sqlsem.NewString(r.Pick(shipModes)),
				sqlsem.NewString(comment(r, 4)),
			}})
		}
		status := "P"
		if allShipped {
			status = "F"
		} else if noneShipped {
			status = "O"
		}
		oc := comment(r, 8)
		// ~2% of orders carry the "special requests" marker used by Q13.
		if r.Intn(50) == 0 {
			oc = "special packages requests " + oc
		}
		orders.MustAppendRow(
			sqlsem.NewInt(int64(o)),
			sqlsem.NewInt(int64(custkey)),
			sqlsem.NewString(status),
			sqlsem.NewFloat(totalPrice),
			sqlsem.NewDate(orderdate),
			sqlsem.NewString(r.Pick(orderPriorities)),
			sqlsem.NewString(fmt.Sprintf("Clerk#%09d", r.Range(1, 1000))),
			sqlsem.NewInt(0),
			sqlsem.NewString(oc),
		)
		for _, lr := range lineRows {
			lineitem.MustAppendRow(lr.vals...)
		}
	}
	db.AddTable(orders)
	db.AddTable(lineitem)
	return db
}
