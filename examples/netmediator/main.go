// Command netmediator runs the paper's Figure 3 architecture over real
// TCP: two source-database servers in this process (they could be any two
// machines), a mediator connected to both through the wire protocol, with
// update announcements streaming over the connections and the mediator's
// snapshot queries multiplexed on the same FIFO channels — the ordering
// the Eager Compensation Algorithm relies on.
package main

import (
	"fmt"
	"log"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/node"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/vdp"
	"squirrel/internal/wire"
)

func main() {
	clk := &clock.Logical{}

	// --- "Remote" source databases, each behind a TCP server. ---
	hrSchema := relation.MustSchema("Employees", []relation.Attribute{
		{Name: "emp_id", Type: relation.KindInt},
		{Name: "dept", Type: relation.KindString},
		{Name: "name", Type: relation.KindString},
	}, "emp_id")
	hr := source.NewDB("hr", clk)
	employees := relation.NewSet(hrSchema)
	employees.Insert(relation.T(1, "eng", "ada"))
	employees.Insert(relation.T(2, "eng", "grace"))
	employees.Insert(relation.T(3, "ops", "linus"))
	if err := hr.LoadRelation(employees); err != nil {
		log.Fatal(err)
	}

	payrollSchema := relation.MustSchema("Salaries", []relation.Attribute{
		{Name: "emp", Type: relation.KindInt},
		{Name: "salary", Type: relation.KindInt},
	}, "emp")
	payroll := source.NewDB("payroll", clk)
	salaries := relation.NewSet(payrollSchema)
	salaries.Insert(relation.T(1, 120))
	salaries.Insert(relation.T(2, 130))
	salaries.Insert(relation.T(3, 95))
	if err := payroll.LoadRelation(salaries); err != nil {
		log.Fatal(err)
	}

	hrSrv := wire.NewSourceServer(hr)
	hrAddr, err := hrSrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer hrSrv.Close()
	paySrv := wire.NewSourceServer(payroll)
	payAddr, err := paySrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer paySrv.Close()
	fmt.Printf("source servers: hr@%s payroll@%s\n", hrAddr, payAddr)

	// --- The mediator dials both sources. ---
	hrConn, err := wire.Dial(hrAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer hrConn.Close()
	payConn, err := wire.Dial(payAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer payConn.Close()

	b := vdp.NewBuilder()
	if err := b.AddSource("hr", hrSchema); err != nil {
		log.Fatal(err)
	}
	if err := b.AddSource("payroll", payrollSchema); err != nil {
		log.Fatal(err)
	}
	if err := b.AddViewSQL("EngPay",
		`SELECT emp_id, name, salary FROM Employees JOIN Salaries ON emp_id = emp WHERE dept = 'eng'`); err != nil {
		log.Fatal(err)
	}
	// Salaries change often: keep the salary column virtual so payroll
	// updates never have to be propagated; queries fetch it on demand.
	b.Annotate("EngPay", vdp.Ann([]string{"emp_id", "name"}, []string{"salary"}))
	b.Annotate("Salaries'", vdp.Ann(nil, []string{"emp", "salary"}))
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// One ordered start: attach both announcement feeds, then initialize.
	n, err := node.Start(node.Config{
		Mediator: core.Config{VDP: plan, Clock: clk,
			Sources: map[string]core.SourceConn{"hr": hrConn, "payroll": payConn}},
		Attach: map[string]func(source.Handler){"hr": hrConn.OnAnnounce, "payroll": payConn.OnAnnounce},
	})
	if err != nil {
		log.Fatal(err)
	}
	med := n.Mediator
	fmt.Println("\nannotated VDP at the mediator:")
	fmt.Print(plan)
	fmt.Printf("hr is a %s; payroll is a %s\n", med.Contributor("hr"), med.Contributor("payroll"))

	show := func(tag string) {
		res, err := med.Query(algebra.Scan{Rel: "EngPay"}, core.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nEngPay %s:\n%s", tag, res.Answer)
	}
	show("(initial)")

	// A payroll raise travels over TCP as an announcement. Until the
	// mediator runs an update transaction, queries stay consistent with
	// the LAST PROCESSED state: the salary poll is Eager-Compensated
	// against the queued raise, so ada still shows 120. This is the §3
	// consistency guarantee in action — the view never shows a mix of
	// processed and unprocessed source states.
	d := delta.New()
	d.Delete("Salaries", relation.T(1, 120))
	d.Insert("Salaries", relation.T(1, 150))
	payroll.MustApply(d)
	fmt.Println("\npayroll commits: ada 120 -> 150 (announcement queued, not yet processed)")
	waitFor(func() bool { return med.QueueLen() >= 1 })
	show("(raise queued: Eager Compensation keeps the answer at ref′ — still 120)")

	if _, err := med.RunUpdateTransaction(); err != nil {
		log.Fatal(err)
	}
	show("(after update transaction: 150)")

	// An HR hire flows through the announcement stream into the
	// materialized portion; the matching salary arrives via polling.
	d2 := delta.New()
	d2.Insert("Employees", relation.T(4, "eng", "barbara"))
	hr.MustApply(d2)
	d3 := delta.New()
	d3.Insert("Salaries", relation.T(4, 140))
	payroll.MustApply(d3)
	fmt.Println("\nhr commits: hire barbara (eng); payroll commits: salary 140")
	waitFor(func() bool { return med.QueueLen() >= 2 })
	if _, err := med.RunUpdateTransaction(); err != nil {
		log.Fatal(err)
	}
	show("(after hire + sync)")

	st := med.Stats()
	fmt.Printf("\nmediator stats: polls=%d tuplesPolled=%d updateTxns=%d queryTxns=%d\n",
		st.SourcePolls, st.TuplesPolled, st.UpdateTxns, st.QueryTxns)
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatal("timed out waiting for announcements")
		}
		time.Sleep(time.Millisecond)
	}
}
