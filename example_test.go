package xquec_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"xquec"
)

const catalog = `<catalog>
  <book year="2000"><title>XMill</title><price>42.50</price></book>
  <book year="2002"><title>XGrind</title><price>28.00</price></book>
  <book year="2004"><title>XQueC</title><price>45.00</price></book>
</catalog>`

// Compress a document and evaluate a query whose range predicate runs
// in the compressed domain.
func Example() {
	db, err := xquec.Compress([]byte(catalog), xquec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Execute(context.Background(), `
	  FOR $b IN document("catalog.xml")/catalog/book
	  WHERE $b/price >= 40
	  RETURN $b/title/text()`, xquec.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	if _, err := res.WriteXML(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	// Output:
	// XMill
	// XQueC
}

// Results is a pull cursor: each Next advances the evaluation by one
// item, and stopping early skips the remaining work entirely.
func ExampleResults_Next() {
	db, err := xquec.Compress([]byte(catalog), xquec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Execute(context.Background(), `/catalog/book/title/text()`, xquec.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	for {
		item, ok, err := res.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		xml, err := item.XML()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(xml)
	}
	// Output:
	// XMill
	// XGrind
	// XQueC
}

// Aggregates and constructors work over the compressed containers; only
// serialized output is decompressed.
func ExampleDatabase_MustQuery() {
	db, err := xquec.Compress([]byte(catalog), xquec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res := db.MustQuery(`<summary books="{count(/catalog/book)}" total="{sum(/catalog/book/price)}"/>`)
	defer res.Close()
	res.WriteXML(os.Stdout)
	fmt.Println()
	// Output:
	// <summary books="3" total="115.5"/>
}

// Explain shows the plan without running the query, the listing of its
// compiled program: which accesses hit the structure summary and which
// predicates stay compressed.
func ExampleDatabase_Explain() {
	db, err := xquec.Compress([]byte(catalog), xquec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Explain(`FOR $b IN /catalog/book WHERE $b/price >= 40 RETURN $b/title/text()`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	// Output:
	// program: 8 instrs, 1 cursors, 1 domains, 1 preds (size≈1064B)
	//   0  RESET
	//   1  SCAN     c0 <- d0        ; /catalog/book ; StructureSummaryAccess /catalog/book (3 nodes), invariant
	//   2  LITREST  c0, p0          ; ($b/price >= 40) ; conts /catalog/book/price/#text[decimal](3 recs) ContAccess range on compressed bytes ; cost=3.0
	//   3  ITER     c0 -> $b, done->7
	//   4  DEFERRED c0, fail->3
	//   5  EVAL     e0              ; $b/title/text() ; summary-guided navigation /catalog/book/title (3 nodes), reads /title one per parent
	//   6  EMITSEQ  done->3
	//   7  HALT
}

// ExampleDatabase_Containers inspects the per-path containers and the
// algorithms chosen for them.
func ExampleDatabase_Containers() {
	db, err := xquec.Compress([]byte(catalog), xquec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range db.Containers() {
		fmt.Printf("%s %s/%s\n", c.Path, c.Kind, c.Algorithm)
	}
	// Output:
	// /catalog/book/@year int/int
	// /catalog/book/title/#text string/alm
	// /catalog/book/price/#text decimal/decimal
}
