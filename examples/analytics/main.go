// Command analytics shows the operational side of the framework: several
// export relations over shared sources, multi-export queries (§6.3's
// set-of-triples form), a background runtime draining the update queue as
// announcements arrive (the u_hold policy), and the consistency check.
package main

import (
	"fmt"
	"log"
	"time"

	"squirrel"
)

func main() {
	sys := squirrel.NewSystem()
	sales := sys.AddSource("sales")
	sales.MustLoadTable(squirrel.Relations(
		squirrel.MustSchema("Orders", []squirrel.Attribute{
			{Name: "oid", Type: squirrel.KindInt},
			{Name: "prod", Type: squirrel.KindInt},
			{Name: "qty", Type: squirrel.KindInt},
		}, "oid"),
		squirrel.T(1, 100, 3), squirrel.T(2, 101, 1), squirrel.T(3, 100, 2),
	))
	catalogDB := sys.AddSource("catalog")
	catalogDB.MustLoadTable(squirrel.Relations(
		squirrel.MustSchema("Products", []squirrel.Attribute{
			{Name: "pid", Type: squirrel.KindInt},
			{Name: "price", Type: squirrel.KindInt},
			{Name: "active", Type: squirrel.KindInt},
		}, "pid"),
		squirrel.T(100, 10, 1), squirrel.T(101, 25, 1), squirrel.T(102, 99, 0),
	))

	// Two export relations over the same sources.
	sys.MustDefineView("OrderLines",
		`SELECT oid, qty, pid, price FROM Orders JOIN Products ON prod = pid WHERE active = 1`)
	sys.MustDefineView("Expensive",
		`SELECT prod FROM Orders JOIN Products ON prod = pid WHERE price > 20`)
	sys.MustStart()
	fmt.Println("annotated VDP:")
	fmt.Print(sys.Plan())

	// Background runtime: the u_hold policy as a deployable loop.
	rt, err := sys.StartRuntime(5 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}

	// Commits land while the loop runs.
	if _, err := sales.Insert("Orders", squirrel.T(4, 101, 7)); err != nil {
		log.Fatal(err)
	}
	if _, err := catalogDB.Insert("Products", squirrel.T(103, 50, 1)); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.Mediator().QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Multi-export queries: join and union across the two exports (the
	// attribute sets are disjoint — OrderLines has pid, Expensive has
	// prod — so no renaming is needed).
	rows, err := sys.Query(
		`SELECT oid, qty, price FROM OrderLines JOIN Expensive ON pid = prod`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\norder lines for expensive products (join ACROSS exports):")
	fmt.Print(rows)

	u, err := sys.Query(`SELECT pid FROM OrderLines UNION SELECT prod FROM Expensive`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nproducts appearing in either export (union across exports):")
	fmt.Print(u)

	if err := rt.Stop(); err != nil {
		log.Fatal(err)
	}
	if err := sys.CheckConsistency(); err != nil {
		log.Fatalf("consistency: %v", err)
	}
	fmt.Println("\nconsistency check (incl. multi-export answers): OK")
}
