package rtree

import "fmt"

// ForEachEntry calls fn for every stored (leaf) entry. fn returning false
// stops the walk early. Unlike Search it visits everything and does not
// touch the node-access counter — it is an administrative walk (tests
// diff a tree's contents against their inputs with it), not a query.
func (t *Tree) ForEachEntry(fn func(id int64, r Rect) bool) {
	t.forEachEntry(t.root, fn)
}

func (t *Tree) forEachEntry(n *node, fn func(id int64, r Rect) bool) bool {
	if n.leaf {
		for i := range n.ids {
			if !fn(n.ids[i], boxRect(t.nbox(n, i))) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.forEachEntry(c, fn) {
			return false
		}
	}
	return true
}

// CheckInvariants walks the whole tree and verifies the structural
// invariants every query's correctness rests on:
//
//   - every leaf sits at the same depth (the tree is height-balanced);
//   - every internal entry's box is exactly the tight bounding box of its
//     child's entries (MinDist pruning and Contains-guided deletes both
//     assume tightness — a too-small box loses entries, a too-large one
//     only wastes work, and neither should exist);
//   - node entry counts respect Guttman's bounds: at most maxEntries
//     everywhere; at least minEntries in non-root nodes; an internal root
//     has at least 2 entries;
//   - the flat arrays are consistent: a node's boxes array holds exactly
//     2·dim floats per entry, leaves carry ids and no children, internal
//     nodes carry children and no ids; Len() equals the number of leaf
//     entries.
//
// It returns the first violation found (nil when the tree is sound).
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	stride := 2 * t.dim
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int) error
	walk = func(n *node, depth int) error {
		cnt := n.count()
		if cnt > t.maxEntries {
			return fmt.Errorf("rtree: node at depth %d has %d entries, max %d", depth, cnt, t.maxEntries)
		}
		isRoot := n == t.root
		if !isRoot && cnt < t.minEntries {
			return fmt.Errorf("rtree: non-root node at depth %d has %d entries, min %d", depth, cnt, t.minEntries)
		}
		if isRoot && !n.leaf && cnt < 2 {
			return fmt.Errorf("rtree: internal root has %d entries, want >= 2", cnt)
		}
		if len(n.boxes) != cnt*stride {
			return fmt.Errorf("rtree: node at depth %d holds %d box floats for %d entries (stride %d)",
				depth, len(n.boxes), cnt, stride)
		}
		if n.leaf {
			if len(n.children) != 0 {
				return fmt.Errorf("rtree: leaf at depth %d carries %d child nodes", depth, len(n.children))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("rtree: leaf at depth %d, others at %d", depth, leafDepth)
			}
			count += cnt
			return nil
		}
		if len(n.ids) != 0 {
			return fmt.Errorf("rtree: internal node at depth %d carries %d payload ids", depth, len(n.ids))
		}
		tight := make([]float64, stride)
		for i, c := range n.children {
			if c == nil {
				return fmt.Errorf("rtree: internal entry %d at depth %d has nil child", i, depth)
			}
			if c.count() == 0 {
				return fmt.Errorf("rtree: internal entry %d at depth %d points at an empty node", i, depth)
			}
			t.nodeBoxInto(tight, c)
			if !boxEqual(t.nbox(n, i), tight) {
				return fmt.Errorf("rtree: internal entry %d at depth %d has box %v, tight box %v",
					i, depth, t.nbox(n, i), tight)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: Len() = %d but tree holds %d leaf entries", t.size, count)
	}
	return nil
}
