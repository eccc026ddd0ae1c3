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
// The top-level API assembles complete systems:
//
//	sys := squirrel.NewSystem()
//	db := sys.AddSource("orders-db")
//	db.MustCreateTable(squirrel.MustSchema("Orders", ...), squirrel.Set)
//	sys.MustDefineView("BigSpenders", `SELECT ... FROM Orders JOIN ...`)
//	sys.Annotate("BigSpenders", []string{"cust"}, []string{"total"})
//	sys.MustStart()
//	rows, err := sys.Query(`SELECT cust FROM BigSpenders WHERE total > 100`)
//
// Advanced use (custom VDPs, simulation, network deployment, correctness
// checking) goes through the re-exported subsystem types below; see the
// examples directory and DESIGN.md for the full map.
package squirrel

import (
	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/delta"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
	"squirrel/internal/resilience"
	"squirrel/internal/source"
	"squirrel/internal/store"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
)

// Core relational types.
type (
	// Value is a dynamically typed scalar (int, float, string, bool, null).
	Value = relation.Value
	// Kind identifies a Value's type.
	Kind = relation.Kind
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
	// Row pairs a tuple with its multiplicity.
	Row = relation.Row
	// RelationBackend selects a Relation's physical storage: Blocks
	// (columnar, the default) or Rows (the boxed-tuple reference
	// implementation kept as a differential oracle).
	RelationBackend = relation.Backend
)

// Value kinds and semantics constants.
const (
	KindNull   = relation.KindNull
	KindBool   = relation.KindBool
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
	Set        = relation.Set
	Bag        = relation.Bag
	// Blocks is the columnar relation backend (type-specialized column
	// vectors plus a multiplicity column); Rows is the row-oriented
	// reference backend.
	Blocks = relation.Blocks
	Rows   = relation.Rows
)

// Value and schema constructors.
var (
	// Int, Float, Str, Bool, Null build scalar values.
	Int   = relation.Int
	Float = relation.Float
	Str   = relation.Str
	Bool  = relation.Bool
	Null  = relation.Null
	// T builds a tuple from Go values (int, float64, string, bool, nil).
	T = relation.T
	// NewSchema and MustSchema build relation schemas.
	NewSchema  = relation.NewSchema
	MustSchema = relation.MustSchema
	// NewRelation builds an empty relation on the process-default backend.
	NewRelation = relation.New
	// NewRelationWith builds an empty relation on an explicit backend.
	NewRelationWith = relation.NewWith
	// SetRelationBackend / DefaultRelationBackend control the process-wide
	// default storage backend for newly created relations and deltas.
	SetRelationBackend     = relation.SetDefaultBackend
	DefaultRelationBackend = relation.DefaultBackend
	// ParseRelationBackend parses "blocks" or "rows".
	ParseRelationBackend = relation.ParseBackend
)

// Delta machinery (§6.2 of the paper).
type (
	// Delta is a multi-relation incremental update.
	Delta = delta.Delta
	// RelDelta is a single-relation incremental update.
	RelDelta = delta.RelDelta
)

// NewDelta creates an empty multi-relation delta.
var NewDelta = delta.New

// Predicate/expression language.
type (
	// Expr is a scalar/boolean expression over attribute names.
	Expr = algebra.Expr
)

// Expression constructors (see also ParseCondition for textual form).
var (
	A    = algebra.A
	CInt = algebra.CInt
	CStr = algebra.CStr
	Eq   = algebra.Eq
	Ne   = algebra.Ne
	Lt   = algebra.Lt
	Le   = algebra.Le
	Gt   = algebra.Gt
	Ge   = algebra.Ge
	Conj = algebra.Conj
	Disj = algebra.Disj
)

// VDP construction (§5).
type (
	// VDP is an annotated View Decomposition Plan.
	VDP = vdp.VDP
	// VDPNode is one node of a plan.
	VDPNode = vdp.Node
	// VDPBuilder assembles plans from SQL view definitions.
	VDPBuilder = vdp.Builder
	// Annotation maps attributes to materialized/virtual.
	Annotation = vdp.Annotation
	// WorkloadProfile feeds the §5.3 annotation advisor.
	WorkloadProfile = vdp.WorkloadProfile
	// Advice is the advisor's annotations plus its reasoning.
	Advice = vdp.Advice
)

// VDP helpers.
var (
	NewVDPBuilder   = vdp.NewBuilder
	AllMaterialized = vdp.AllMaterialized
	AllVirtual      = vdp.AllVirtual
	Ann             = vdp.Ann
	// Threshold builds an explicit advisor threshold override (including
	// an explicit zero, which nil cannot express).
	Threshold = vdp.Threshold
)

// Online adaptive annotation (the §5.3 loop run live; see
// System.Reannotate and System.StartAdapt).
type (
	// AdaptController runs the observe → advise → apply loop against a
	// running mediator, with hysteresis and cooldown damping.
	AdaptController = core.AdaptController
	// AdaptConfig tunes an AdaptController (interval, damping, manual
	// mode, advisor threshold overrides).
	AdaptConfig = core.AdaptConfig
	// AdaptDecision is one controller round's outcome: observed profile,
	// proposed/applied flips, justifications, and why nothing happened.
	AdaptDecision = core.AdaptDecision
	// AnnotationFlip describes one attribute's materialization change
	// applied by a re-annotation.
	AnnotationFlip = core.AnnotationFlip
	// ProfileCollector derives windowed WorkloadProfiles from a running
	// mediator's metrics.
	ProfileCollector = core.ProfileCollector
)

// Adaptive-annotation constructors (for driving the loop by hand against
// a bare Mediator; System.StartAdapt wraps them).
var (
	NewAdaptController  = core.NewAdaptController
	NewProfileCollector = core.NewProfileCollector
)

// Mediator (§4, §6) and sources.
type (
	// Mediator is a Squirrel integration mediator.
	Mediator = core.Mediator
	// MediatorConfig assembles a mediator.
	MediatorConfig = core.Config
	// SourceDB is an autonomous source database.
	SourceDB = source.DB
	// SourceConn connects a mediator to a source.
	SourceConn = core.SourceConn
	// QueryOptions tune query processing (key-based construction).
	QueryOptions = core.QueryOptions
	// QueryResult carries an answer plus its consistency metadata.
	QueryResult = core.QueryResult
	// ContributorKind classifies sources (§4).
	ContributorKind = core.ContributorKind
	// Stats aggregates mediator operation counters.
	Stats = core.Stats
	// Clock issues the global timestamps of §3.
	Clock = clock.Clock
	// LogicalClock is a strictly increasing in-process clock.
	LogicalClock = clock.Logical
	// Time is a point on the global timeline.
	Time = clock.Time
	// TimeVector is a per-source time vector.
	TimeVector = clock.Vector
	// Runtime drives update transactions by group commit (the u_hold policy).
	Runtime = core.Runtime
	// StateSnapshot is the mediator's durable state (see SaveState).
	StateSnapshot = core.StateSnapshot
	// StoreVersion is one immutable, atomically-published state of the
	// mediator's materialized store. Obtain the current one with
	// Mediator.CurrentVersion (or the sequence number alone with
	// Mediator.StoreVersion / System.StoreVersion); holding the pointer
	// pins that state for as long as the caller needs it, at zero cost to
	// concurrent updates. Its relations are shared and must not be
	// modified.
	StoreVersion = store.Version
	// Recorder captures the transaction trace for the checkers.
	Recorder = trace.Recorder
	// CheckerEnvironment verifies consistency and freshness (§3, §7).
	CheckerEnvironment = checker.Environment
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
	// DegradeMode selects what a query does when a polled source is down:
	// FailFast (default) or ServeStale.
	DegradeMode = core.DegradeMode
	// SourceHealth is the per-source slice of Stats: breaker state, trips,
	// quarantine reason, last contact, announcement cursor.
	SourceHealth = core.SourceHealth
	// FaultInjector drives deterministic, seeded fault injection.
	FaultInjector = resilience.Injector
	// Faults is one source's fault profile (down, error/drop/hang/latency
	// probabilities).
	Faults = resilience.Faults
	// ChaosSource wraps a SourceConn with fault injection.
	ChaosSource = resilience.ChaosSource
)

// Observability (latency histograms, structured events, /metrics).
type (
	// MetricsRegistry holds the mediator's instruments and event log;
	// obtain it with System.Metrics or Mediator.Metrics, render it with
	// WritePrometheus. Pass a shared one via MediatorConfig.Metrics to
	// aggregate several mediators into one scrape.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a consistent-per-instrument copy of every
	// instrument plus the retained events; marshals directly to JSON.
	MetricsSnapshot = metrics.Snapshot
	// MetricsEvent is one structured observability record (poll failure,
	// breaker transition, version publish, flush tick...).
	MetricsEvent = metrics.Event
	// LatencySnapshot is one histogram's state: cumulative buckets plus
	// Mean and Quantile estimation.
	LatencySnapshot = metrics.HistogramSnapshot
)

// NewMetricsRegistry creates a metrics registry with an event ring buffer
// of the given capacity (0 = default).
var NewMetricsRegistry = metrics.NewRegistry

// ErrResyncOvertaken marks a failed resync whose snapshot poll was
// overtaken by announcements newer than the poll — retrying on the same
// cadence will not converge; the mediator flags the source's health as
// ResyncStuck after a few consecutive occurrences. Distinguish it from
// "source still down" with errors.Is.
var ErrResyncOvertaken = core.ErrResyncOvertaken

// Degradation modes.
const (
	// FailFast propagates source failures as query errors.
	FailFast = core.FailFast
	// ServeStale answers from cached/materialized data when a source is
	// down, stamping the answer with a per-source staleness bound
	// (refused above QueryOptions.MaxStaleness — Theorem 7.2's f̄ as a
	// runtime contract).
	ServeStale = core.ServeStale
)

// NewFaultInjector creates a deterministic seeded fault injector; wrap
// source connections with WrapChaos and script outages with SetDown/Set.
var NewFaultInjector = resilience.NewInjector

// WrapChaos wraps a source connection with fault injection.
func WrapChaos(conn SourceConn, inj *FaultInjector) SourceConn {
	return resilience.WrapSource(conn, inj)
}

// Mediator/query-mode constants.
const (
	MaterializedContributor = core.MaterializedContributor
	HybridContributor       = core.HybridContributor
	VirtualContributor      = core.VirtualContributor
	KeyBasedAuto            = core.KeyBasedAuto
	KeyBasedForce           = core.KeyBasedForce
	KeyBasedOff             = core.KeyBasedOff
)

// Construction helpers.
var (
	// NewMediator builds a mediator from a config.
	NewMediator = core.New
	// NewSourceDB creates an autonomous source database.
	NewSourceDB = source.NewDB
	// NewRecorder creates a trace recorder.
	NewRecorder = trace.NewRecorder
	// ConnectLocal subscribes a mediator to an in-process source.
	ConnectLocal = core.ConnectLocal
	// Figure2Scenario reproduces the paper's Figure 2 table.
	Figure2Scenario = checker.Figure2Scenario
)

// LocalConn adapts an in-process source database to a SourceConn.
func LocalConn(db *SourceDB) SourceConn { return core.LocalSource{DB: db} }
