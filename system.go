package squirrel

import (
	"fmt"
	"time"

	"squirrel/internal/algebra"
	"squirrel/internal/checker"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/node"
	"squirrel/internal/relation"
	"squirrel/internal/source"
	"squirrel/internal/sqlview"
	"squirrel/internal/trace"
	"squirrel/internal/vdp"
	"squirrel/internal/wal"
)

// System is the quickstart assembly: in-process source databases, view
// definitions in SQL, per-node annotations, and one mediator — wired on a
// shared logical clock with a trace recorder, ready for the correctness
// checkers.
type System struct {
	clk     *clock.Logical
	rec     *trace.Recorder
	builder *vdp.Builder
	sources map[string]*Source
	order   []string
	med     *Mediator
	wal     *wal.Manager
	resil   ResilienceConfig
	started bool
}

// Source wraps one in-process source database registered with a System.
type Source struct {
	sys *System
	db  *source.DB
}

// NewSystem creates an empty system.
func NewSystem() *System {
	return &System{
		clk:     &clock.Logical{},
		rec:     trace.NewRecorder(),
		builder: vdp.NewBuilder(),
		sources: make(map[string]*Source),
	}
}

// AddSource registers a new source database. Panics if called after Start
// or on a duplicate name (assembly-time programming errors).
func (s *System) AddSource(name string) *Source {
	if s.started {
		panic("squirrel: AddSource after Start")
	}
	if _, dup := s.sources[name]; dup {
		panic("squirrel: duplicate source " + name)
	}
	src := &Source{sys: s, db: source.NewDB(name, s.clk)}
	s.sources[name] = src
	s.order = append(s.order, name)
	return src
}

// Source returns a registered source by name, or nil.
func (s *System) Source(name string) *Source { return s.sources[name] }

// MustSource returns a registered source by name, panicking if absent.
func (s *System) MustSource(name string) *Source {
	src, ok := s.sources[name]
	if !ok {
		panic("squirrel: unknown source " + name)
	}
	return src
}

// Name returns the source database's name.
func (src *Source) Name() string { return src.db.Name() }

// CreateTable declares a relation on the source and registers it as a VDP
// leaf.
func (src *Source) CreateTable(schema *Schema, sem Semantics) error {
	if src.sys.started {
		return fmt.Errorf("squirrel: CreateTable after Start")
	}
	if err := src.db.CreateRelation(schema, sem); err != nil {
		return err
	}
	return src.sys.builder.AddSource(src.db.Name(), schema)
}

// MustCreateTable is CreateTable that panics on error.
func (src *Source) MustCreateTable(schema *Schema, sem Semantics) {
	if err := src.CreateTable(schema, sem); err != nil {
		panic(err)
	}
}

// LoadTable declares a relation with initial contents.
func (src *Source) LoadTable(rel *Relation) error {
	if src.sys.started {
		return fmt.Errorf("squirrel: LoadTable after Start")
	}
	if err := src.db.LoadRelation(rel); err != nil {
		return err
	}
	return src.sys.builder.AddSource(src.db.Name(), rel.Schema())
}

// MustLoadTable is LoadTable that panics on error.
func (src *Source) MustLoadTable(rel *Relation) {
	if err := src.LoadTable(rel); err != nil {
		panic(err)
	}
}

// Apply commits a transaction (a non-redundant delta) on the source,
// announcing the net update to the mediator.
func (src *Source) Apply(d *Delta) (Time, error) { return src.db.Apply(d) }

// MustApply is Apply that panics on error.
func (src *Source) MustApply(d *Delta) Time { return src.db.MustApply(d) }

// Insert commits a single-tuple insertion.
func (src *Source) Insert(rel string, t Tuple) (Time, error) {
	d := NewDelta()
	d.Insert(rel, t)
	return src.db.Apply(d)
}

// Delete commits a single-tuple deletion.
func (src *Source) Delete(rel string, t Tuple) (Time, error) {
	d := NewDelta()
	d.Delete(rel, t)
	return src.db.Apply(d)
}

// DefineView adds an export relation defined by a SQL view definition
// (SELECT...FROM...JOIN...WHERE, optionally UNION/EXCEPT of two blocks).
func (s *System) DefineView(name, sql string) error {
	if s.started {
		return fmt.Errorf("squirrel: DefineView after Start")
	}
	return s.builder.AddViewSQL(name, sql)
}

// MustDefineView is DefineView that panics on error.
func (s *System) MustDefineView(name, sql string) {
	if err := s.DefineView(name, sql); err != nil {
		panic(err)
	}
}

// Annotate sets a node's materialized/virtual attribute split. Nodes
// default to fully materialized. Auxiliary nodes created by DefineView are
// named: one leaf-parent per source relation R as "R'", union/except block
// nodes as "<view>_l" and "<view>_r".
func (s *System) Annotate(node string, materialized, virtual []string) {
	s.builder.Annotate(node, Ann(materialized, virtual))
}

// AnnotateAllVirtual marks every attribute of a node virtual.
func (s *System) AnnotateAllVirtual(node string, attrs []string) {
	s.builder.Annotate(node, Ann(nil, attrs))
}

// SetResilience configures the mediator's source fault boundary (poll
// timeouts, retry/backoff, circuit breakers). Call before Start; the zero
// config (the default) is strict fail-fast.
func (s *System) SetResilience(cfg ResilienceConfig) {
	if s.started {
		panic("squirrel: SetResilience after Start")
	}
	s.resil = cfg
}

// Start validates the plan, builds the mediator, connects announcement
// feeds, and initializes the materialized store from the sources.
func (s *System) Start() error {
	_, err := s.start(nil)
	return err
}

// DurabilityConfig configures the write-ahead delta log behind
// StartDurable.
type DurabilityConfig struct {
	// Dir is the WAL directory (segments + checkpoints), created if
	// missing. Required.
	Dir string
}

// StartDurable is Start backed by a durable write-ahead delta log. On a
// fresh directory it initializes from the sources and starts logging;
// on a directory with state it recovers — newest readable checkpoint
// plus log replay — then catches up on source commits made while down
// (from the source logs; never a full resync). Every published version
// is durable before it is visible (fsync per commit), and the log is
// compacted on the default cadence. The returned info is nil on a fresh
// start.
func (s *System) StartDurable(cfg DurabilityConfig) (*RecoveryInfo, error) {
	return s.start(&wal.Options{Dir: cfg.Dir})
}

// start builds the mediator over the registered sources through the one
// node lifecycle (internal/node), with a log when opts is non-nil.
func (s *System) start(opts *wal.Options) (*RecoveryInfo, error) {
	if s.started {
		return nil, fmt.Errorf("squirrel: already started")
	}
	plan, err := s.builder.Build()
	if err != nil {
		return nil, err
	}
	cfg := node.Config{
		Mediator: core.Config{VDP: plan, Sources: map[string]SourceConn{}, Clock: s.clk, Recorder: s.rec,
			Resilience: s.resil},
		WAL:    opts,
		Attach: map[string]func(source.Handler){},
		Replay: map[string]func(Time, source.Handler){},
	}
	for name, src := range s.sources {
		cfg.Mediator.Sources[name] = core.LocalSource{DB: src.db}
		cfg.Attach[name] = src.db.Subscribe
		cfg.Replay[name] = src.db.ReplaySince
	}
	n, err := node.Start(cfg)
	if err != nil {
		return nil, err
	}
	s.med, s.wal, s.started = n.Mediator, n.WAL, true
	return n.Recovery, nil
}

// Shutdown closes the WAL cleanly — final checkpoint, so the next
// StartDurable replays nothing. Stop any Runtime first. No-op without a
// WAL.
func (s *System) Shutdown() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// MustStart is Start that panics on error.
func (s *System) MustStart() {
	if err := s.Start(); err != nil {
		panic(err)
	}
}

// Sync drains the update queue through one update transaction (§6.4),
// reporting whether anything was processed.
func (s *System) Sync() (bool, error) {
	if !s.started {
		return false, fmt.Errorf("squirrel: not started")
	}
	return s.med.RunUpdateTransaction()
}

// SyncAll runs update transactions until the queue is empty.
func (s *System) SyncAll() error {
	for {
		ran, err := s.Sync()
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
	}
}

// Query answers a SELECT against the integrated view: π_A σ_f over one
// export (with key-based optimization), or a join, UNION or EXCEPT of
// several (§6.3's set-of-triples form).
func (s *System) Query(sql string) (*Relation, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	res, err := s.med.QuerySQL(sql, QueryOptions{})
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// QueryExport answers π_attrs σ_cond (export) with explicit options,
// returning the full result with consistency metadata.
func (s *System) QueryExport(export string, attrs []string, cond Expr, opts QueryOptions) (*QueryResult, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	return s.med.Query(algebra.SelectFrom(export, attrs, cond), opts)
}

// ParseCondition parses a textual predicate (e.g. "total > 100 AND
// region = 'EU'") into an Expr for QueryExport.
func ParseCondition(src string) (Expr, error) { return sqlview.ParseExpr(src) }

// Advise runs the §5.3 annotation advisor over the live plan for the
// given workload profile. Apply the advice either by rebuilding a system
// with the suggested annotations, or online — without downtime — through
// Reannotate (one-shot) or StartAdapt (the closed observe → advise →
// apply loop).
func (s *System) Advise(p WorkloadProfile) (Advice, error) {
	if !s.started {
		return Advice{}, fmt.Errorf("squirrel: not started")
	}
	return s.med.VDP().Advise(p), nil
}

// Reannotate switches the running mediator to new per-node annotations
// without downtime: newly-materialized columns are backfilled by VAP polls
// compensated to the current version's ref′ vector, newly-virtual columns
// are dropped from the store, and the switch publishes atomically as the
// next store version. Concurrent queries are never torn — each runs
// against an agreeing (version, plan) pair — and Theorem 7.1 consistency
// holds across the switch (see DESIGN.md, "Adaptive annotation"). The
// returned flips describe each attribute that changed.
func (s *System) Reannotate(anns map[string]Annotation) ([]AnnotationFlip, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	return s.med.Reannotate(anns)
}

// StartAdapt launches the online §5.3 loop: an AdaptController that
// periodically derives a workload profile from the mediator's own metrics,
// asks the advisor, and — once the advice has survived hysteresis and
// cooldown — applies it through Reannotate. Call the returned controller's
// Stop to terminate the loop; use cfg.Manual for observe-and-report only.
func (s *System) StartAdapt(cfg AdaptConfig) (*AdaptController, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	ctrl := core.NewAdaptController(s.med, cfg)
	if err := ctrl.Start(); err != nil {
		return nil, err
	}
	return ctrl, nil
}

// Mediator exposes the underlying mediator.
func (s *System) Mediator() *Mediator { return s.med }

// Metrics exposes the mediator's metrics registry (nil before Start):
// latency histograms for update-transaction phases, kernel stages, source
// polls and queries, plus the structured event log. Render it with
// (*MetricsRegistry).WritePrometheus or snapshot it with MetricsSnapshot.
func (s *System) Metrics() *MetricsRegistry {
	if !s.started {
		return nil
	}
	return s.med.Metrics()
}

// MetricsSnapshot captures every instrument and the retained events (the
// zero Snapshot before Start).
func (s *System) MetricsSnapshot() MetricsSnapshot {
	if !s.started {
		return MetricsSnapshot{}
	}
	return s.med.MetricsSnapshot()
}

// StoreVersion returns the sequence number of the mediator's currently
// published store version (0 before Start). Each committed update
// transaction publishes the next version; every query answer carries the
// version it was computed against (QueryResult.Version).
func (s *System) StoreVersion() uint64 {
	if !s.started {
		return 0
	}
	return s.med.StoreVersion()
}

// Plan exposes the validated VDP (nil before Start). After a live
// re-annotation (Reannotate, StartAdapt) this is the mediator's current
// plan, not the one the system was constructed with.
func (s *System) Plan() *VDP {
	if !s.started {
		return nil
	}
	return s.med.VDP()
}

// CheckConsistency verifies the recorded trace against the §3 consistency
// definition (the executable content of Theorem 7.1).
func (s *System) CheckConsistency() error {
	if !s.started {
		return fmt.Errorf("squirrel: not started")
	}
	return s.checkerEnv().CheckConsistency()
}

// CheckFreshness verifies the recorded trace against the freshness bounds
// (Theorem 7.2), returning the worst observed staleness per source.
func (s *System) CheckFreshness(bounds TimeVector) (TimeVector, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	return s.checkerEnv().CheckFreshness(bounds)
}

func (s *System) checkerEnv() checker.Environment {
	dbs := make(map[string]*source.DB, len(s.sources))
	for name, src := range s.sources {
		dbs[name] = src.db
	}
	// Use the live plan: a re-annotation changes where data lives, not what
	// the view logically contains, so the checkers' recomputation is the
	// same — but the live annotation keeps the environment honest.
	return checker.Environment{VDP: s.med.VDP(), Sources: dbs, Trace: s.rec}
}

// Relations is a convenience for building an initial set relation.
func Relations(schema *Schema, tuples ...Tuple) *Relation {
	r := relation.NewSet(schema)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// StartRuntime launches the background group-commit loop: it commits as
// soon as an announcement arrives, and whatever arrives during a
// transaction forms the next batch. hold is the u_hold_delay bound of §7:
// the retry interval after a failed flush or while a source is
// quarantined. Call the returned runtime's Stop to terminate it (Stop
// performs a final drain).
func (s *System) StartRuntime(hold time.Duration) (*Runtime, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	rt, err := core.NewRuntime(s.med, hold)
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return rt, nil
}
