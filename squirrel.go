// Package squirrel is a from-scratch reproduction of the Squirrel data
// integration framework of Hull & Zhou, "A Framework for Supporting Data
// Integration Using the Materialized and Virtual Approaches" (SIGMOD
// 1996).
//
// A Squirrel integration mediator maintains an integrated relational view
// over multiple autonomous source databases. Each relation of the view can
// be fully materialized, fully virtual, or hybrid (some attributes
// materialized, others virtual). Materialized data is maintained by
// incremental update propagation over an annotated View Decomposition
// Plan (VDP); virtual data is fetched on demand by the Virtual Attribute
// Processor, with Eager Compensation keeping polled data consistent with
// the queued update stream.
//
// The package assembles complete systems:
//
//	sys := squirrel.NewSystem()
//	db := sys.AddSource("orders-db")
//	db.MustCreateTable(squirrel.MustSchema("Orders", ...), squirrel.Set)
//	sys.MustDefineView("BigSpenders", `SELECT ... FROM Orders JOIN ...`)
//	sys.Annotate("BigSpenders", []string{"cust"}, []string{"total"})
//	sys.MustStart()
//	rows, err := sys.Query(`SELECT cust FROM BigSpenders WHERE total > 100`)
//
// Its exported surface is exactly the one listed in api.txt (held by
// TestAPI): System and Source plus the types their signatures need. The
// internal packages behind it serve the examples and tools (custom VDPs,
// simulation, network deployment, correctness checking); DESIGN.md maps
// them.
package squirrel

import (
	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
)

// Relations and their building blocks.
type (
	// Tuple is an ordered list of values.
	Tuple = relation.Tuple
	// Attribute is a named, typed column.
	Attribute = relation.Attribute
	// Schema describes a relation: name, attributes, optional key.
	Schema = relation.Schema
	// Relation is an in-memory relation with set or bag semantics.
	Relation = relation.Relation
	// Semantics selects set or bag storage.
	Semantics = relation.Semantics
	// Delta is a multi-relation incremental update (§6.2).
	Delta = delta.Delta
	// Expr is a scalar/boolean expression over attribute names.
	Expr = algebra.Expr
)

// Attribute types and relation semantics.
const (
	KindNull   = relation.KindNull
	KindBool   = relation.KindBool
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
	Set        = relation.Set
	Bag        = relation.Bag
)

var (
	// T builds a tuple from Go values (int, float64, string, bool, nil).
	T = relation.T
	// MustSchema builds a relation schema, panicking on error.
	MustSchema = relation.MustSchema
	// NewRelation builds an empty relation.
	NewRelation = relation.New
	// NewDelta creates an empty multi-relation delta.
	NewDelta = delta.New
)

// VDP annotation (§5) and the online §5.3 loop (System.Advise,
// System.Reannotate, System.StartAdapt).
type (
	// VDP is an annotated View Decomposition Plan.
	VDP = vdp.VDP
	// Annotation maps attributes to materialized/virtual.
	Annotation = vdp.Annotation
	// WorkloadProfile feeds the §5.3 annotation advisor.
	WorkloadProfile = vdp.WorkloadProfile
	// Advice is the advisor's annotations plus its reasoning.
	Advice = vdp.Advice
	// AdaptController runs the observe → advise → apply loop against a
	// running mediator, with hysteresis and cooldown damping.
	AdaptController = core.AdaptController
	// AdaptConfig tunes an AdaptController (interval, damping, manual
	// mode, advisor threshold overrides).
	AdaptConfig = core.AdaptConfig
	// AnnotationFlip describes one attribute's materialization change
	// applied by a re-annotation.
	AnnotationFlip = core.AnnotationFlip
)

// Ann builds an annotation from materialized and virtual attribute lists.
var Ann = vdp.Ann

// Mediator (§4, §6), queries and the update runtime.
type (
	// Mediator is a Squirrel integration mediator.
	Mediator = core.Mediator
	// SourceConn connects a mediator to a source.
	SourceConn = core.SourceConn
	// QueryOptions tune query processing (key-based construction,
	// degradation).
	QueryOptions = core.QueryOptions
	// QueryResult carries an answer plus its consistency metadata.
	QueryResult = core.QueryResult
	// Time is a point on the global timeline of §3.
	Time = clock.Time
	// TimeVector is a per-source time vector.
	TimeVector = clock.Vector
	// Runtime drives update transactions by group commit (the u_hold policy).
	Runtime = core.Runtime
	// RecoveryInfo reports what System.StartDurable recovered: the
	// checkpoint version, the replayed log records and the resulting
	// store version.
	RecoveryInfo = wal.RecoveryInfo
	// MetricsRegistry holds the mediator's instruments and event log;
	// render it with WritePrometheus.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a consistent-per-instrument copy of every
	// instrument plus the retained events; marshals directly to JSON.
	MetricsSnapshot = metrics.Snapshot
)

// Key-based construction modes (Example 2.3).
const (
	KeyBasedAuto  = core.KeyBasedAuto
	KeyBasedForce = core.KeyBasedForce
	KeyBasedOff   = core.KeyBasedOff
)

// Fault tolerance (retry, circuit breaking, degraded answers, chaos).
type (
	// ResilienceConfig tunes the mediator's source fault boundary: poll
	// timeouts, retry/backoff, and per-source circuit breakers. The zero
	// value preserves strict fail-fast behavior.
	ResilienceConfig = core.ResilienceConfig
	// RetryPolicy caps attempts and bounds the exponential backoff.
	RetryPolicy = resilience.RetryPolicy
	// BreakerPolicy configures the per-source circuit breaker.
	BreakerPolicy = resilience.BreakerPolicy
	// FaultInjector drives deterministic, seeded fault injection.
	FaultInjector = resilience.Injector
	// Faults is one source's fault profile (down, error/drop/hang/latency
	// probabilities).
	Faults = resilience.Faults
)

// Degradation modes (QueryOptions.Degrade).
const (
	// FailFast propagates source failures as query errors.
	FailFast = core.FailFast
	// ServeStale answers from cached/materialized data when a source is
	// down, stamping the answer with a per-source staleness bound
	// (refused above QueryOptions.MaxStaleness — Theorem 7.2's f̄ as a
	// runtime contract).
	ServeStale = core.ServeStale
)

// ErrResyncOvertaken marks a failed resync whose snapshot poll was
// overtaken by announcements newer than the poll — retrying on the same
// cadence will not converge; the mediator flags the source's health as
// ResyncStuck after a few consecutive occurrences. Distinguish it from
// "source still down" with errors.Is.
var ErrResyncOvertaken = core.ErrResyncOvertaken

// NewFaultInjector creates a deterministic seeded fault injector; wrap
// source connections with WrapChaos and script outages with SetDown/Set.
var NewFaultInjector = resilience.NewInjector

// WrapChaos wraps a source connection with fault injection.
func WrapChaos(conn SourceConn, inj *FaultInjector) SourceConn {
	return resilience.WrapSource(conn, inj)
}
