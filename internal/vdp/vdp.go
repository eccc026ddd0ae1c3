package vdp

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"squirrel/internal/algebra"
	"squirrel/internal/relation"
)

// Node is one vertex of a VDP. Leaves (Def == nil) correspond to relations
// in source databases and carry the owning source's name; non-leaf nodes
// are relations maintained by the mediator and carry a definition and an
// annotation.
type Node struct {
	Name   string
	Schema *relation.Schema
	// Source names the owning source database; set exactly on leaves.
	Source string
	// Def defines the node in terms of its children; nil on leaves.
	Def Def
	// Export marks the node as part of the integrated view's export
	// relations (§5.1 item 5).
	Export bool
	// Ann annotates each attribute as materialized or virtual; nil on
	// leaves.
	Ann Annotation
}

// IsLeaf reports whether the node is a source-database relation.
func (n *Node) IsLeaf() bool { return n.Def == nil }

// IsSetNode reports whether the node stores a set (difference nodes); all
// other non-leaf nodes are bag nodes (§5.1 item 4).
func (n *Node) IsSetNode() bool {
	_, ok := n.Def.(DiffDef)
	return ok
}

// Semantics returns the storage semantics of the node's relation.
func (n *Node) Semantics() relation.Semantics {
	if n.IsSetNode() {
		return relation.Set
	}
	return relation.Bag
}

// FullyMaterialized reports whether every attribute is materialized.
func (n *Node) FullyMaterialized() bool {
	for _, a := range n.Schema.AttrNames() {
		if !n.Ann.IsMaterialized(a) {
			return false
		}
	}
	return true
}

// FullyVirtual reports whether every attribute is virtual.
func (n *Node) FullyVirtual() bool {
	for _, a := range n.Schema.AttrNames() {
		if n.Ann.IsMaterialized(a) {
			return false
		}
	}
	return true
}

// Hybrid reports whether the node mixes materialized and virtual
// attributes (a partially materialized relation).
func (n *Node) Hybrid() bool { return !n.FullyMaterialized() && !n.FullyVirtual() }

// MaterializedAttrs returns the materialized attribute names in schema
// order.
func (n *Node) MaterializedAttrs() []string {
	var out []string
	for _, a := range n.Schema.AttrNames() {
		if n.Ann.IsMaterialized(a) {
			out = append(out, a)
		}
	}
	return out
}

// VirtualAttrs returns the virtual attribute names in schema order.
func (n *Node) VirtualAttrs() []string {
	var out []string
	for _, a := range n.Schema.AttrNames() {
		if !n.Ann.IsMaterialized(a) {
			out = append(out, a)
		}
	}
	return out
}

// VDP is a validated View Decomposition Plan.
type VDP struct {
	nodes    map[string]*Node
	order    []string            // topological order, children before parents
	topo     map[string]int      // node -> index in order
	stages   [][]string          // antichain partition of order (stages.go)
	parents  map[string][]string // node -> parents (sorted)
	children map[string][]string // node -> distinct children (sorted)
	relevant map[string]bool     // see MaterializationRelevant
	plans    map[string]*spjPlan // SPJ node -> firing plan (spjplan.go)
	indexes  map[string][][]string

	// Sibling rows read by rule firings (JoinRowCounts): observability
	// only, the one mutable part of an otherwise immutable plan.
	probedRows, scannedRows atomic.Int64
}

// New validates the given nodes and assembles a VDP.
func New(nodes ...*Node) (*VDP, error) {
	v := &VDP{
		nodes:    make(map[string]*Node, len(nodes)),
		parents:  make(map[string][]string),
		children: make(map[string][]string),
	}
	for _, n := range nodes {
		if n.Name == "" || n.Schema == nil {
			return nil, fmt.Errorf("vdp: node needs a name and a schema")
		}
		if n.Name != n.Schema.Name() {
			return nil, fmt.Errorf("vdp: node %q schema is named %q", n.Name, n.Schema.Name())
		}
		if _, dup := v.nodes[n.Name]; dup {
			return nil, fmt.Errorf("vdp: duplicate node %q", n.Name)
		}
		v.nodes[n.Name] = n
	}
	for _, n := range v.nodes {
		if err := v.validateNode(n); err != nil {
			return nil, err
		}
	}
	if err := v.buildOrder(); err != nil {
		return nil, err
	}
	// Every maximal node (no in-edges) must be in Export.
	for _, name := range v.order {
		n := v.nodes[name]
		if len(v.parents[name]) == 0 && !n.IsLeaf() && !n.Export {
			return nil, fmt.Errorf("vdp: maximal node %q must be an export relation", name)
		}
		if n.IsLeaf() && n.Export {
			return nil, fmt.Errorf("vdp: leaf %q cannot be an export relation", name)
		}
	}
	v.computeStages()
	v.computeRelevance()
	if err := v.computePlans(); err != nil {
		return nil, err
	}
	return v, nil
}

// computeRelevance marks every node from which materialized data is
// reachable upward: a node is materialization-relevant iff it has a
// materialized attribute itself or some ancestor does. Incremental update
// propagation only needs to traverse relevant nodes; everything else is
// reconstructed on demand by the VAP.
func (v *VDP) computeRelevance() {
	v.relevant = make(map[string]bool, len(v.order))
	for i := len(v.order) - 1; i >= 0; i-- { // parents before children
		name := v.order[i]
		n := v.nodes[name]
		rel := false
		if !n.IsLeaf() {
			for _, a := range n.Schema.AttrNames() {
				if n.Ann.IsMaterialized(a) {
					rel = true
					break
				}
			}
		}
		if !rel {
			for _, p := range v.parents[name] {
				if v.relevant[p] {
					rel = true
					break
				}
			}
		}
		v.relevant[name] = rel
	}
}

// MaterializationRelevant reports whether incremental updates to the node
// can affect any materialized data (the node or an ancestor stores
// something). The IUP skips propagation into irrelevant nodes.
func (v *VDP) MaterializationRelevant(name string) bool { return v.relevant[name] }

// Must is like New but panics on error; for tests and literal plans.
func Must(nodes ...*Node) *VDP {
	v, err := New(nodes...)
	if err != nil {
		panic(err)
	}
	return v
}

func (v *VDP) validateNode(n *Node) error {
	if n.IsLeaf() {
		if n.Source == "" {
			return fmt.Errorf("vdp: leaf %q must name its source database", n.Name)
		}
		if n.Ann != nil {
			return fmt.Errorf("vdp: leaf %q must not carry an annotation", n.Name)
		}
		return nil
	}
	if n.Source != "" {
		return fmt.Errorf("vdp: non-leaf %q must not name a source database", n.Name)
	}
	if n.Ann == nil {
		return fmt.Errorf("vdp: non-leaf %q needs an annotation", n.Name)
	}
	for attr := range n.Ann {
		if !n.Schema.HasAttr(attr) {
			return fmt.Errorf("vdp: node %q annotation mentions unknown attribute %q", n.Name, attr)
		}
	}
	for _, attr := range n.Schema.AttrNames() {
		if _, ok := n.Ann[attr]; !ok {
			return fmt.Errorf("vdp: node %q annotation missing attribute %q", n.Name, attr)
		}
	}
	// Resolve children and check def-shape restrictions.
	kids := n.Def.Children()
	if len(kids) == 0 {
		return fmt.Errorf("vdp: node %q definition has no children", n.Name)
	}
	anyLeaf := false
	for _, c := range kids {
		child, ok := v.nodes[c]
		if !ok {
			return fmt.Errorf("vdp: node %q references unknown child %q", n.Name, c)
		}
		if child.IsLeaf() {
			anyLeaf = true
		}
	}
	if anyLeaf {
		// §5.1 item 4(a): immediate parents of leaf nodes can involve only
		// projection and selection on those leaf nodes.
		spj, ok := n.Def.(SPJ)
		if !ok || len(spj.Inputs) != 1 || !algebra.IsTrue(spj.JoinCond) {
			return fmt.Errorf("vdp: leaf-parent %q must be a project/select over a single leaf", n.Name)
		}
	}
	switch d := n.Def.(type) {
	case SPJ:
		return v.validateSPJ(n, d)
	case UnionDef:
		return v.validateBranchPair(n, d.L, d.R, false)
	case DiffDef:
		return v.validateBranchPair(n, d.L, d.R, true)
	}
	return fmt.Errorf("vdp: node %q has unsupported definition type %T", n.Name, n.Def)
}

// inputSchema returns the post-projection schema of one SPJ input.
func (v *VDP) inputSchema(owner string, in SPJInput) (*relation.Schema, error) {
	child, ok := v.nodes[in.Rel]
	if !ok {
		return nil, fmt.Errorf("vdp: node %q references unknown child %q", owner, in.Rel)
	}
	// Selection attributes must exist on the child.
	for attr := range algebra.Attrs(in.Where) {
		if !child.Schema.HasAttr(attr) {
			return nil, fmt.Errorf("vdp: node %q input %s: selection attribute %q not in child schema", owner, in.Rel, attr)
		}
	}
	if len(in.Proj) == 0 {
		return child.Schema, nil
	}
	return child.Schema.Project(in.Rel, in.Proj)
}

func (v *VDP) validateSPJ(n *Node, d SPJ) error {
	if len(d.Proj) == 0 {
		return fmt.Errorf("vdp: SPJ node %q needs an explicit projection", n.Name)
	}
	// Build the concatenated post-projection schema; attribute names must
	// be disjoint across inputs.
	var concat *relation.Schema
	for i, in := range d.Inputs {
		s, err := v.inputSchema(n.Name, in)
		if err != nil {
			return err
		}
		if concat == nil {
			concat = s.Rename("·")
			continue
		}
		concat, err = concat.Concat("·", s)
		if err != nil {
			return fmt.Errorf("vdp: SPJ node %q input %d: %v", n.Name, i, err)
		}
	}
	for attr := range algebra.Attrs(d.JoinCond) {
		if !concat.HasAttr(attr) {
			return fmt.Errorf("vdp: node %q join condition attribute %q not available", n.Name, attr)
		}
	}
	for attr := range algebra.Attrs(d.Where) {
		if !concat.HasAttr(attr) {
			return fmt.Errorf("vdp: node %q selection attribute %q not available", n.Name, attr)
		}
	}
	if len(d.Proj) != n.Schema.Arity() {
		return fmt.Errorf("vdp: node %q projection arity %d != schema arity %d", n.Name, len(d.Proj), n.Schema.Arity())
	}
	for i, p := range d.Proj {
		if !concat.HasAttr(p) {
			return fmt.Errorf("vdp: node %q projects unknown attribute %q", n.Name, p)
		}
		if n.Schema.AttrNames()[i] != p {
			return fmt.Errorf("vdp: node %q schema attribute %d is %q but projection yields %q (renaming is not supported)",
				n.Name, i, n.Schema.AttrNames()[i], p)
		}
	}
	return nil
}

func (v *VDP) validateBranchPair(n *Node, l, r Branch, isDiff bool) error {
	for _, b := range []Branch{l, r} {
		child, ok := v.nodes[b.Rel]
		if !ok {
			return fmt.Errorf("vdp: node %q references unknown child %q", n.Name, b.Rel)
		}
		if len(b.Proj) != n.Schema.Arity() {
			return fmt.Errorf("vdp: node %q branch %s projection arity %d != schema arity %d",
				n.Name, b.Rel, len(b.Proj), n.Schema.Arity())
		}
		for _, p := range b.Proj {
			if !child.Schema.HasAttr(p) {
				return fmt.Errorf("vdp: node %q branch %s projects unknown attribute %q", n.Name, b.Rel, p)
			}
		}
		for attr := range algebra.Attrs(b.Where) {
			if !child.Schema.HasAttr(attr) {
				return fmt.Errorf("vdp: node %q branch %s selection attribute %q not in child schema", n.Name, b.Rel, attr)
			}
		}
		// Types must match the node schema positionally.
		for i, p := range b.Proj {
			ct, _ := child.Schema.AttrType(p)
			nt := n.Schema.Attrs()[i].Type
			if ct != nt {
				return fmt.Errorf("vdp: node %q branch %s position %d: type %s != node type %s",
					n.Name, b.Rel, i, ct, nt)
			}
		}
	}
	return nil
}

func (v *VDP) buildOrder() error {
	// Collect distinct edges.
	indeg := make(map[string]int, len(v.nodes))
	for name := range v.nodes {
		indeg[name] = 0
	}
	childSets := make(map[string]map[string]bool)
	for name, n := range v.nodes {
		if n.IsLeaf() {
			continue
		}
		set := make(map[string]bool)
		for _, c := range n.Def.Children() {
			set[c] = true
		}
		childSets[name] = set
	}
	for name, set := range childSets {
		kids := make([]string, 0, len(set))
		for c := range set {
			kids = append(kids, c)
			v.parents[c] = append(v.parents[c], name)
		}
		sort.Strings(kids)
		v.children[name] = kids
	}
	for _, ps := range v.parents {
		sort.Strings(ps)
	}
	// Kahn's algorithm from leaves upward: indegree = number of children
	// not yet placed.
	for name, kids := range v.children {
		indeg[name] = len(kids)
	}
	var wave []string
	for name, d := range indeg {
		if d == 0 {
			wave = append(wave, name)
		}
	}
	sort.Strings(wave)
	var order []string
	// Emit ready nodes in whole waves (sorted within each wave) rather
	// than one at a time: the order stays deterministic and topological,
	// and simultaneously-ready nodes land adjacently, so the antichain
	// chunking of stages.go cuts wide stages instead of interleaving
	// parents with unrelated leaves.
	for len(wave) > 0 {
		var next []string
		for _, cur := range wave {
			order = append(order, cur)
			for _, p := range v.parents[cur] {
				indeg[p]--
				if indeg[p] == 0 {
					next = append(next, p)
				}
			}
		}
		sort.Strings(next)
		wave = next
	}
	if len(order) != len(v.nodes) {
		return fmt.Errorf("vdp: the graph contains a cycle")
	}
	v.order = order
	v.topo = make(map[string]int, len(order))
	for i, name := range order {
		v.topo[name] = i
	}
	return nil
}

// Node returns the named node, or nil.
func (v *VDP) Node(name string) *Node { return v.nodes[name] }

// Order returns all node names in topological order (children before
// parents). The slice must not be modified.
func (v *VDP) Order() []string { return v.order }

// Parents returns the parents of a node (sorted).
func (v *VDP) Parents(name string) []string { return v.parents[name] }

// Children returns the distinct children of a node (sorted).
func (v *VDP) Children(name string) []string { return v.children[name] }

// Leaves returns the leaf node names in topological order.
func (v *VDP) Leaves() []string {
	var out []string
	for _, name := range v.order {
		if v.nodes[name].IsLeaf() {
			out = append(out, name)
		}
	}
	return out
}

// NonLeaves returns the non-leaf node names in topological order.
func (v *VDP) NonLeaves() []string {
	var out []string
	for _, name := range v.order {
		if !v.nodes[name].IsLeaf() {
			out = append(out, name)
		}
	}
	return out
}

// Exports returns the export relation names in topological order.
func (v *VDP) Exports() []string {
	var out []string
	for _, name := range v.order {
		if v.nodes[name].Export {
			out = append(out, name)
		}
	}
	return out
}

// Sources returns the sorted distinct source database names.
func (v *VDP) Sources() []string {
	set := make(map[string]bool)
	for _, name := range v.order {
		if n := v.nodes[name]; n.IsLeaf() {
			set[n.Source] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// LeavesOf returns the leaf names owned by the given source database.
func (v *VDP) LeavesOf(source string) []string {
	var out []string
	for _, name := range v.order {
		if n := v.nodes[name]; n.IsLeaf() && n.Source == source {
			out = append(out, name)
		}
	}
	return out
}

// String renders the plan deterministically: one node per line in
// topological order with definition and annotation.
func (v *VDP) String() string {
	var b strings.Builder
	for _, name := range v.order {
		n := v.nodes[name]
		switch {
		case n.IsLeaf():
			fmt.Fprintf(&b, "□ %s @ %s\n", n.Schema, n.Source)
		default:
			marker := "○"
			if n.Export {
				marker = "◎"
			}
			fmt.Fprintf(&b, "%s %s %s := %s\n", marker, name, n.Ann.String(n.Schema), n.Def)
		}
	}
	return b.String()
}
