package squirrel

import (
	"fmt"
	"io"
	"time"

	"squirrel/internal/core"
	"squirrel/internal/persist"
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
	clk     *LogicalClock
	rec     *Recorder
	builder *vdp.Builder
	sources map[string]*Source
	order   []string
	med     *Mediator
	plan    *VDP
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
		clk:     &LogicalClock{},
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

// DB exposes the underlying source database (commits, snapshot queries,
// historical replay).
func (src *Source) DB() *SourceDB { return src.db }

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

// assemble validates the plan and builds a mediator over the registered
// sources — shared by every Start variant. Announcement feeds are NOT
// connected: a recovering mediator must replay with an empty queue.
func (s *System) assemble() (*VDP, *Mediator, error) {
	plan, err := s.builder.Build()
	if err != nil {
		return nil, nil, err
	}
	conns := make(map[string]SourceConn, len(s.sources))
	for name, src := range s.sources {
		conns[name] = core.LocalSource{DB: src.db}
	}
	med, err := core.New(core.Config{VDP: plan, Sources: conns, Clock: s.clk, Recorder: s.rec,
		Resilience: s.resil})
	if err != nil {
		return nil, nil, err
	}
	return plan, med, nil
}

func (s *System) connectFeeds(med *Mediator) {
	for _, src := range s.sources {
		core.ConnectLocal(med, src.db)
	}
}

// Start validates the plan, builds the mediator, connects announcement
// feeds, and initializes the materialized store from the sources.
func (s *System) Start() error {
	if s.started {
		return fmt.Errorf("squirrel: already started")
	}
	plan, med, err := s.assemble()
	if err != nil {
		return err
	}
	s.connectFeeds(med)
	if err := med.Initialize(); err != nil {
		return err
	}
	s.plan, s.med, s.started = plan, med, true
	return nil
}

// DurabilityConfig configures the write-ahead delta log behind
// StartDurable.
type DurabilityConfig struct {
	// Dir is the WAL directory (segments + checkpoints), created if
	// missing. Required.
	Dir string
	// Fsync is the sync policy: wal.SyncCommit (default — every
	// published version is durable first), wal.SyncBatch (the runtime
	// makes each drained batch durable with one fsync before its next
	// transaction), or wal.SyncNone.
	Fsync wal.SyncPolicy
	// CompactEvery checkpoints the store and truncates the log after
	// this many logged commits (0 = default, negative = only on
	// shutdown/recovery).
	CompactEvery int
}

// StartDurable is Start backed by a durable write-ahead delta log. On a
// fresh directory it initializes from the sources and starts logging;
// on a directory with state it recovers — newest readable checkpoint
// plus log replay — then catches up on source commits made while down
// (from the source logs; never a full resync). The returned info is nil
// on a fresh start.
func (s *System) StartDurable(cfg DurabilityConfig) (*wal.RecoveryInfo, error) {
	if s.started {
		return nil, fmt.Errorf("squirrel: already started")
	}
	plan, med, err := s.assemble()
	if err != nil {
		return nil, err
	}
	mgr, err := wal.Open(wal.Options{
		Dir: cfg.Dir, Policy: cfg.Fsync, CompactEvery: cfg.CompactEvery,
		Metrics: med.Metrics(),
	})
	if err != nil {
		return nil, err
	}
	has, err := mgr.HasState()
	if err != nil {
		return nil, err
	}
	var info *wal.RecoveryInfo
	if has {
		if info, err = mgr.Recover(med); err != nil {
			return nil, err
		}
		s.connectFeeds(med)
		lp := med.LastProcessed()
		for name, src := range s.sources {
			src.db.ReplaySince(lp[name], med.OnAnnouncement)
		}
	} else {
		s.connectFeeds(med)
		if err := med.Initialize(); err != nil {
			return nil, err
		}
		if err := mgr.Start(med); err != nil {
			return nil, err
		}
	}
	s.plan, s.med, s.wal, s.started = plan, med, mgr, true
	return info, nil
}

// WAL exposes the system's log manager (nil unless StartDurable).
func (s *System) WAL() *wal.Manager { return s.wal }

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

// Query answers a SELECT against the integrated view. Single-relation
// queries (`SELECT cols FROM Export WHERE cond`) go through the paper's
// π_A σ_f query processor with key-based optimization; queries that join
// several exports or combine them with UNION/EXCEPT go through the
// multi-export path (§6.3's set-of-triples form).
func (s *System) Query(sql string) (*Relation, error) {
	if !s.started {
		return nil, fmt.Errorf("squirrel: not started")
	}
	stmt, err := sqlview.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt.Op == "" && len(stmt.Left.Tables) == 1 {
		return s.med.Query(stmt.Left.Tables[0].Rel, stmt.Left.Cols, stmt.Left.Where)
	}
	expr, err := stmt.ToRelExpr("answer")
	if err != nil {
		return nil, err
	}
	res, err := s.med.QueryExpr(expr, QueryOptions{})
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
	return s.med.QueryOpts(export, attrs, cond, opts)
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

// CurrentVersion pins the currently published store version: an immutable
// snapshot of the materialized store that stays valid (and consistent)
// for as long as the pointer is held, regardless of concurrent updates.
// Nil before Start.
func (s *System) CurrentVersion() *StoreVersion {
	if !s.started {
		return nil
	}
	return s.med.CurrentVersion()
}

// Plan exposes the validated VDP (nil before Start). After a live
// re-annotation (Reannotate, StartAdapt) this is the mediator's current
// plan, not the one the system was constructed with.
func (s *System) Plan() *VDP {
	if s.started {
		return s.med.VDP()
	}
	return s.plan
}

// Trace exposes the transaction trace recorder.
func (s *System) Trace() *Recorder { return s.rec }

// ClockNow returns a fresh global timestamp.
func (s *System) ClockNow() Time { return s.clk.Now() }

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

func (s *System) checkerEnv() CheckerEnvironment {
	dbs := make(map[string]*source.DB, len(s.sources))
	for name, src := range s.sources {
		dbs[name] = src.db
	}
	// Use the live plan: a re-annotation changes where data lives, not what
	// the view logically contains, so the checkers' recomputation is the
	// same — but the live annotation keeps the environment honest.
	return CheckerEnvironment{VDP: s.med.VDP(), Sources: dbs, Trace: s.rec}
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

// SaveState writes a snapshot of the mediator's durable state (the
// materialized store and its ref′ vector) to w. Restore it into a fresh
// system with StartFromState.
func (s *System) SaveState(w io.Writer) error {
	if !s.started {
		return fmt.Errorf("squirrel: not started")
	}
	snap, err := s.med.Snapshot()
	if err != nil {
		return err
	}
	return persist.Save(w, snap)
}

// SaveStateFile is SaveState with crash-safe file semantics: the
// snapshot is written to a temp file in the target's directory, fsynced,
// and atomically renamed over path — a crash mid-save never clobbers the
// previous snapshot.
func (s *System) SaveStateFile(path string) error {
	if !s.started {
		return fmt.Errorf("squirrel: not started")
	}
	snap, err := s.med.Snapshot()
	if err != nil {
		return err
	}
	return persist.SaveFile(path, snap)
}

// StartFromState is Start, except the materialized store is restored from
// a snapshot (written by SaveState on a system with the same sources,
// views, and annotations) instead of being rebuilt by polling. After the
// restore, announcements committed since the snapshot are replayed from
// the source logs, so the first Sync catches the mediator up.
func (s *System) StartFromState(r io.Reader) error {
	if s.started {
		return fmt.Errorf("squirrel: already started")
	}
	snap, err := persist.Load(r)
	if err != nil {
		return err
	}
	plan, med, err := s.assemble()
	if err != nil {
		return err
	}
	s.connectFeeds(med)
	if err := med.Restore(snap); err != nil {
		return err
	}
	lp := med.LastProcessed()
	for name, src := range s.sources {
		src.db.ReplaySince(lp[name], med.OnAnnouncement)
	}
	s.plan, s.med, s.started = plan, med, true
	return nil
}
