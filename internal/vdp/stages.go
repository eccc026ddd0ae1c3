package vdp

// Antichain stages for the staged parallel kernel. The Kernel Algorithm
// (§6.4) processes nodes "in topological order", and Theorem 7.1's
// sibling-state discipline fixes, per fired rule, which sibling states are
// resolved NEW (nodes earlier in that order) and which OLD (the node
// itself and later ones). Nothing in the discipline requires the order to
// be executed serially: two nodes with no ancestry between them never
// read each other's post-state mid-flight as long as each rule still
// resolves the states the chosen order dictates.
//
// Stages() therefore partitions the validated topological order into
// maximal antichain runs: consecutive slices of Order() in which no node
// is defined over another member of the same slice. Because the slices
// are cut from Order() itself (rather than recomputed by depth, which
// could permute incomparable nodes), concatenating the stages reproduces
// Order() exactly — a staged executor that resolves same-stage states by
// topological index replays the serial kernel's discipline verbatim,
// which is what lets the differential oracle demand byte-identical
// stores.
//
// Invariants (checked by stages_test.go):
//   - concat(Stages()) == Order()
//   - every child of a stage member lies in a strictly earlier stage, so
//     at stage entry all deltas feeding the stage are final
//   - no stage member is an ancestor of another member of its stage

// computeStages fills v.stages by greedy antichain chunking of v.order.
// Called once from New, after buildOrder.
func (v *VDP) computeStages() {
	var stages [][]string
	var cur []string
	inCur := make(map[string]bool)
	for _, name := range v.order {
		for _, c := range v.children[name] {
			if inCur[c] {
				stages = append(stages, cur)
				cur = nil
				inCur = make(map[string]bool)
				break
			}
		}
		cur = append(cur, name)
		inCur[name] = true
	}
	if len(cur) > 0 {
		stages = append(stages, cur)
	}
	v.stages = stages
}

// Stages returns the antichain partition of the topological order:
// children-first stages whose concatenation equals Order(). Within a
// stage no node depends on another, so the members' maintenance work is
// mutually independent once same-stage sibling reads follow the
// topological-index discipline. The result is shared; callers must not
// modify it.
func (v *VDP) Stages() [][]string { return v.stages }

// TopoIndex returns the node's position in Order(), or -1 if unknown.
// The staged kernel uses it to decide, for two dirty nodes sharing a
// stage, which resolves to its new state when the other's rules fire.
func (v *VDP) TopoIndex(name string) int {
	if i, ok := v.topo[name]; ok {
		return i
	}
	return -1
}
