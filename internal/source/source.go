// Package source implements the autonomous source databases of §4: each DB
// commits local transactions, assigns them globally unique timestamps,
// announces per-transaction net updates to subscribers in commit order
// (the "single undividable message" requirement), answers snapshot
// queries, and can replay any historical state for the correctness
// checkers.
//
// Message-ordering contract (needed for the Eager Compensation Algorithm,
// §6.3): announcements and query answers produced by one DB are emitted
// under the same lock, so any in-process or FIFO transport preserves the
// property the paper assumes — a query answer is received after the
// announcements of every transaction it reflects.
package source

import (
	"fmt"
	"sync"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
)

// Announcement is the net update of one committed transaction.
//
// Seq and FirstSeq carry the per-source commit sequence numbers covered by
// this announcement: [FirstSeq, Seq] for a batch, FirstSeq == Seq for a
// single commit. Sequence numbers start at 1 and are dense in commit
// order, so a receiver that last saw seq n must see FirstSeq == n+1 next;
// anything larger proves announcements were lost (a gap). Zero means
// "unknown" — producers that predate sequencing — and disables gap
// detection for that announcement.
// Reflect and Barrier exist for federated tiers (a mediator re-announcing
// its own commits as a source; internal/federate). Reflect, when non-nil,
// is the announcing tier's ref′ vector at Time in base-source
// coordinates; plain sources leave it nil. Barrier, when non-empty, marks
// a publish that was NOT derived from the previous announcement by a
// delta (a downstream resync or re-annotation): it carries no Delta, and
// consumers must quarantine the stream and resynchronize from a snapshot.
type Announcement struct {
	Source   string
	Time     clock.Time
	Delta    *delta.Delta
	Seq      uint64
	FirstSeq uint64
	Reflect  clock.Vector
	Barrier  string
}

// Handler receives announcements; called synchronously at commit, in
// commit order.
type Handler func(Announcement)

// Commit is one entry of the transaction log.
type Commit struct {
	Time  clock.Time
	Delta *delta.Delta
}

// DB is an autonomous source database.
type DB struct {
	name  string
	clock clock.Clock

	mu       sync.Mutex
	rels     map[string]*relation.Relation
	initial  map[string]*relation.Relation
	log      []Commit
	born     clock.Time
	handlers []Handler
}

// NewDB creates an empty source database named name stamping events with
// the given clock.
func NewDB(name string, c clock.Clock) *DB {
	return &DB{
		name:    name,
		clock:   c,
		rels:    make(map[string]*relation.Relation),
		initial: make(map[string]*relation.Relation),
		born:    c.Now(),
	}
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// Born returns the creation timestamp; states are defined from this time.
func (db *DB) Born() clock.Time { return db.born }

// CreateRelation adds an empty relation.
func (db *DB) CreateRelation(schema *relation.Schema, sem relation.Semantics) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.rels[schema.Name()]; dup {
		return fmt.Errorf("source %s: relation %q already exists", db.name, schema.Name())
	}
	db.rels[schema.Name()] = relation.New(schema, sem)
	db.initial[schema.Name()] = relation.New(schema, sem)
	return nil
}

// LoadRelation installs rel (with its current contents) as the initial
// state of a relation.
func (db *DB) LoadRelation(rel *relation.Relation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	name := rel.Schema().Name()
	if _, dup := db.rels[name]; dup {
		return fmt.Errorf("source %s: relation %q already exists", db.name, name)
	}
	db.rels[name] = rel.Clone()
	db.initial[name] = rel.Clone()
	return nil
}

// Relations returns the relation names (unsorted).
func (db *DB) Relations() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	return out
}

// Schema returns the schema of the named relation.
func (db *DB) Schema(rel string) (*relation.Schema, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[rel]
	if !ok {
		return nil, fmt.Errorf("source %s: unknown relation %q", db.name, rel)
	}
	return r.Schema(), nil
}

// Subscribe registers a handler for future announcements. Handlers run
// synchronously inside the commit, so they must be fast (enqueue and
// return) and must not call back into the DB.
func (db *DB) Subscribe(h Handler) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.handlers = append(db.handlers, h)
}

// Apply atomically commits the transaction described by d (strictly: every
// atom must be non-redundant), assigns it a timestamp, logs it, and
// announces the net update. It returns the commit time.
func (db *DB) Apply(d *delta.Delta) (clock.Time, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Apply to copies and install them only once every touched relation
	// has taken its delta, so a failed transaction leaves no partial
	// effects.
	rels := d.Relations()
	next := make([]*relation.Relation, len(rels))
	for i, relName := range rels {
		r, ok := db.rels[relName]
		if !ok {
			return 0, fmt.Errorf("source %s: transaction touches unknown relation %q", db.name, relName)
		}
		next[i] = r.Clone()
		if err := d.Get(relName).ApplyTo(next[i], true); err != nil {
			return 0, fmt.Errorf("source %s: %w", db.name, err)
		}
	}
	for i, relName := range rels {
		db.rels[relName] = next[i]
	}
	t := db.clock.Now()
	snapshot := d.Clone()
	db.log = append(db.log, Commit{Time: t, Delta: snapshot})
	// The commit's position in the log is its sequence number (1-based);
	// ReplaySince recomputes the same numbers from log indices.
	seq := uint64(len(db.log))
	ann := Announcement{Source: db.name, Time: t, Delta: snapshot, Seq: seq, FirstSeq: seq}
	for _, h := range db.handlers {
		h(ann)
	}
	return t, nil
}

// MustApply is Apply that panics on error (examples and tests).
func (db *DB) MustApply(d *delta.Delta) clock.Time {
	t, err := db.Apply(d)
	if err != nil {
		panic(err)
	}
	return t
}

// QuerySpec is one snapshot read: π_Attrs σ_Cond (Rel). Nil Attrs means
// all attributes.
type QuerySpec struct {
	Rel   string
	Attrs []string
	Cond  algebra.Expr
}

// Query answers a single snapshot read. The answer corresponds to the
// database state as of the returned time (the last commit at or before the
// read; Born if none).
func (db *DB) Query(spec QuerySpec) (*relation.Relation, clock.Time, error) {
	res, t, err := db.QueryMulti([]QuerySpec{spec})
	if err != nil {
		return nil, 0, err
	}
	return res[0], t, nil
}

// QueryMulti answers several reads atomically — the "single transaction"
// packaging of §6.3 that guarantees all answers reflect one state. The
// returned time is the read's serialization instant: the answers are
// exactly the database state at that time.
func (db *DB) QueryMulti(specs []QuerySpec) ([]*relation.Relation, clock.Time, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*relation.Relation, len(specs))
	for i, spec := range specs {
		r, ok := db.rels[spec.Rel]
		if !ok {
			return nil, 0, fmt.Errorf("source %s: unknown relation %q", db.name, spec.Rel)
		}
		ans, err := evalSpec(r, spec)
		if err != nil {
			return nil, 0, err
		}
		out[i] = ans
	}
	return out, db.clock.Now(), nil
}

// QueryMultiAt answers several reads against the historical state at time
// at (replayed from the log). Used by the simulation harness to model
// sources that publish batched snapshots: the answers correspond exactly
// to the state at the returned time (= at).
func (db *DB) QueryMultiAt(specs []QuerySpec, at clock.Time) ([]*relation.Relation, clock.Time, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*relation.Relation, len(specs))
	for i, spec := range specs {
		init, ok := db.initial[spec.Rel]
		if !ok {
			return nil, 0, fmt.Errorf("source %s: unknown relation %q", db.name, spec.Rel)
		}
		hist := init.Clone()
		for _, c := range db.log {
			if c.Time > at {
				break
			}
			if rd := c.Delta.Get(spec.Rel); rd != nil {
				if err := rd.ApplyTo(hist, true); err != nil {
					return nil, 0, fmt.Errorf("source %s: replay: %w", db.name, err)
				}
			}
		}
		ans, err := evalSpec(hist, spec)
		if err != nil {
			return nil, 0, err
		}
		out[i] = ans
	}
	return out, at, nil
}

// FirstCommitAfter returns the time of the earliest commit strictly after
// t, and whether one exists.
func (db *DB) FirstCommitAfter(t clock.Time) (clock.Time, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, c := range db.log {
		if c.Time > t {
			return c.Time, true
		}
	}
	return 0, false
}

// LastCommitAtOrBefore returns the time of the latest commit ≤ t (Born if
// none).
func (db *DB) LastCommitAtOrBefore(t clock.Time) clock.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := db.born
	for _, c := range db.log {
		if c.Time > t {
			break
		}
		out = c.Time
	}
	return out
}

// EvalSpec answers one snapshot read (π_Attrs σ_Cond) against an
// arbitrary relation, with the same semantics a DB applies to its own
// state. It never mutates r. Exported for source-protocol backends that
// are not DBs (the federated-mediator exporter).
func EvalSpec(r *relation.Relation, spec QuerySpec) (*relation.Relation, error) {
	return evalSpec(r, spec)
}

func evalSpec(r *relation.Relation, spec QuerySpec) (*relation.Relation, error) {
	return algebra.SelectProject(r, r.Schema().Name(), spec.Attrs, spec.Cond)
}

func (db *DB) lastCommitLocked() clock.Time {
	if len(db.log) == 0 {
		return db.born
	}
	return db.log[len(db.log)-1].Time
}

// LastCommit returns the time of the most recent commit (Born if none).
func (db *DB) LastCommit() clock.Time {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastCommitLocked()
}

// StateAt replays the named relation to its contents as of global time t
// (used by the consistency checker — mediators never call this).
func (db *DB) StateAt(rel string, t clock.Time) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	init, ok := db.initial[rel]
	if !ok {
		return nil, fmt.Errorf("source %s: unknown relation %q", db.name, rel)
	}
	out := init.Clone()
	for _, c := range db.log {
		if c.Time > t {
			break
		}
		if rd := c.Delta.Get(rel); rd != nil {
			if err := rd.ApplyTo(out, true); err != nil {
				return nil, fmt.Errorf("source %s: replay: %w", db.name, err)
			}
		}
	}
	return out, nil
}

// Current returns a snapshot (clone) of the named relation's live state.
func (db *DB) Current(rel string) (*relation.Relation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.rels[rel]
	if !ok {
		return nil, fmt.Errorf("source %s: unknown relation %q", db.name, rel)
	}
	return r.Clone(), nil
}

// Log returns a copy of the commit log.
func (db *DB) Log() []Commit {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]Commit(nil), db.log...)
}

// ReplaySince re-delivers, in commit order, the announcements of every
// transaction committed strictly after t. A mediator restored from a
// snapshot calls this (via its announcement feed) to catch up on commits
// it missed while down; the mediator's own dedup (announcement time ≤
// ref′) makes over-replay harmless.
func (db *DB) ReplaySince(t clock.Time, h Handler) {
	db.mu.Lock()
	var replay []Announcement
	for i, c := range db.log {
		if c.Time > t {
			seq := uint64(i + 1)
			replay = append(replay, Announcement{
				Source: db.name, Time: c.Time, Delta: c.Delta.Clone(),
				Seq: seq, FirstSeq: seq,
			})
		}
	}
	db.mu.Unlock()
	for _, a := range replay {
		h(a)
	}
}
