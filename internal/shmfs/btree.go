package shmfs

// The paper's 64-bit roadmap for the address-to-file mapping: "Within the
// kernel, we will abandon the linear lookup table and the direct
// association between inode numbers and addresses. Instead, we will add an
// address field to the on-disk version of each inode, and will link these
// inodes into a lookup structure — most likely a B-tree — whose presence
// on the disk allows it to survive across re-boots."
//
// This file implements that B-tree: keys are segment base addresses,
// values are (inode, path). It is maintained alongside the linear table so
// the E-fs ablation can compare all three lookup strategies (linear scan,
// direct slot index, B-tree) over identical state. On a 32-bit prototype
// the direct index is trivially available; the B-tree is what scales to a
// 64-bit address space where slots are not dense.
//
// Insert, Delete and LookupCovering are each one root-to-leaf pass, so
// O(log n). Every node but the root holds between btreeOrder/2-1 and
// btreeOrder-1 keys: a split leaves each half at the minimum, and Delete
// tops a child up (borrowing from a sibling, or merging with one) before
// descending into it. File creation and unlink are both frequent — every
// module publish and link-cache invalidation unlinks — so neither may cost
// a pass over the whole tree.

import "fmt"

const (
	btreeOrder = 8                // max children per node; max keys = btreeOrder-1
	minKeys    = btreeOrder/2 - 1 // min keys in a non-root node, as splitChild leaves it
)

type btreeEntry struct {
	base uint32
	ino  int
	path string
}

type btreeNode struct {
	entries  []btreeEntry
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// AddrTree is a B-tree from segment base address to file identity.
type AddrTree struct {
	root  *btreeNode
	count int
}

// NewAddrTree returns an empty tree.
func NewAddrTree() *AddrTree {
	return &AddrTree{root: &btreeNode{}}
}

// Len returns the number of entries.
func (t *AddrTree) Len() int { return t.count }

// Insert adds (or replaces) the entry for base.
func (t *AddrTree) Insert(base uint32, ino int, path string) {
	if replaced := t.root.replace(base, ino, path); replaced {
		return
	}
	if len(t.root.entries) == btreeOrder-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.root.splitChild(0)
	}
	t.root.insertNonFull(btreeEntry{base: base, ino: ino, path: path})
	t.count++
}

// replace updates an existing key in place, reporting whether it existed.
func (n *btreeNode) replace(base uint32, ino int, path string) bool {
	i := n.search(base)
	if i < len(n.entries) && n.entries[i].base == base {
		n.entries[i].ino = ino
		n.entries[i].path = path
		return true
	}
	if n.leaf() {
		return false
	}
	return n.children[i].replace(base, ino, path)
}

// search returns the index of the first entry with base >= key.
func (n *btreeNode) search(key uint32) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.entries[mid].base < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := len(child.entries) / 2
	up := child.entries[mid]
	right := &btreeNode{entries: append([]btreeEntry(nil), child.entries[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	clear(child.entries[mid:])
	child.entries = child.entries[:mid]
	n.entries = append(n.entries, btreeEntry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = up
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(e btreeEntry) {
	i := n.search(e.base)
	if n.leaf() {
		n.entries = append(n.entries, btreeEntry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		return
	}
	if len(n.children[i].entries) == btreeOrder-1 {
		n.splitChild(i)
		if e.base > n.entries[i].base {
			i++
		}
	}
	n.children[i].insertNonFull(e)
}

// LookupCovering finds the entry whose [base, base+SlotSize) range covers
// addr.
func (t *AddrTree) LookupCovering(addr uint32) (ino int, path string, off uint32, ok bool) {
	n := t.root
	var best *btreeEntry
	for n != nil {
		i := n.search(addr)
		if i < len(n.entries) && n.entries[i].base == addr {
			best = &n.entries[i]
			break
		}
		// The covering entry, if any, is the predecessor of addr.
		if i > 0 {
			best = &n.entries[i-1]
		}
		if n.leaf() {
			break
		}
		if i > 0 {
			// Descend right of the predecessor to find a closer one.
			n = n.children[i]
		} else {
			n = n.children[0]
		}
	}
	if best == nil || addr < best.base || addr >= best.base+SlotSize {
		return 0, "", 0, false
	}
	return best.ino, best.path, addr - best.base, true
}

// Delete removes the entry for base, reporting whether it existed. It is
// textbook B-tree deletion in one pass down: every child is topped up to
// more than minKeys before the descent enters it, so removing a key from a
// leaf never leaves the leaf under-full, and an inner key is replaced by
// its in-order predecessor or successor. The root shrinks by a level when
// a merge empties it.
func (t *AddrTree) Delete(base uint32) bool {
	if !t.contains(base) {
		return false
	}
	t.root.delete(base)
	if len(t.root.entries) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.count--
	return true
}

// delete removes key, which is present in n's subtree, from it. n is the
// root or holds more than minKeys entries.
func (n *btreeNode) delete(key uint32) {
	for {
		i := n.search(key)
		found := i < len(n.entries) && n.entries[i].base == key
		if n.leaf() {
			if found {
				n.removeEntry(i)
			}
			return
		}
		if found {
			switch {
			case len(n.children[i].entries) > minKeys:
				pred := n.children[i].max()
				n.entries[i] = pred
				n, key = n.children[i], pred.base
			case len(n.children[i+1].entries) > minKeys:
				succ := n.children[i+1].min()
				n.entries[i] = succ
				n, key = n.children[i+1], succ.base
			default:
				n.merge(i)
				n = n.children[i]
			}
			continue
		}
		if len(n.children[i].entries) == minKeys {
			i = n.fill(i)
		}
		n = n.children[i]
	}
}

// fill tops child i up from minKeys entries: it borrows through n from a
// sibling that can spare an entry, or else merges with one. It returns
// the index of the child that now covers child i's key range.
func (n *btreeNode) fill(i int) int {
	switch {
	case i > 0 && len(n.children[i-1].entries) > minKeys:
		left, child := n.children[i-1], n.children[i]
		child.entries = append(child.entries, btreeEntry{})
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[i-1]
		n.entries[i-1] = left.entries[len(left.entries)-1]
		left.removeEntry(len(left.entries) - 1)
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.removeChild(len(left.children) - 1)
		}
		return i
	case i < len(n.children)-1 && len(n.children[i+1].entries) > minKeys:
		child, right := n.children[i], n.children[i+1]
		child.entries = append(child.entries, n.entries[i])
		n.entries[i] = right.entries[0]
		right.removeEntry(0)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.removeChild(0)
		}
		return i
	case i < len(n.children)-1:
		n.merge(i)
		return i
	default:
		n.merge(i - 1)
		return i - 1
	}
}

// merge folds entry i and child i+1 into child i. Both children hold
// minKeys entries, so the result holds btreeOrder-1.
func (n *btreeNode) merge(i int) {
	left, right := n.children[i], n.children[i+1]
	left.entries = append(left.entries, n.entries[i])
	left.entries = append(left.entries, right.entries...)
	left.children = append(left.children, right.children...)
	n.removeEntry(i)
	n.removeChild(i + 1)
}

// removeEntry deletes entry i, clearing the vacated slot so the backing
// array keeps no reference to a removed path.
func (n *btreeNode) removeEntry(i int) {
	last := len(n.entries) - 1
	copy(n.entries[i:], n.entries[i+1:])
	n.entries[last] = btreeEntry{}
	n.entries = n.entries[:last]
}

// removeChild deletes child pointer i, clearing the vacated slot.
func (n *btreeNode) removeChild(i int) {
	last := len(n.children) - 1
	copy(n.children[i:], n.children[i+1:])
	n.children[last] = nil
	n.children = n.children[:last]
}

// max returns the largest entry in n's subtree.
func (n *btreeNode) max() btreeEntry {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

// min returns the smallest entry in n's subtree.
func (n *btreeNode) min() btreeEntry {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.entries[0]
}

func (t *AddrTree) contains(base uint32) bool {
	n := t.root
	for n != nil {
		i := n.search(base)
		if i < len(n.entries) && n.entries[i].base == base {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	return false
}

// Walk returns all entries in ascending base order.
func (t *AddrTree) Walk() []btreeEntry {
	var out []btreeEntry
	var rec func(n *btreeNode)
	rec = func(n *btreeNode) {
		for i, e := range n.entries {
			if !n.leaf() {
				rec(n.children[i])
			}
			out = append(out, e)
		}
		if !n.leaf() {
			rec(n.children[len(n.children)-1])
		}
	}
	rec(t.root)
	return out
}

// Check validates B-tree invariants: sorted keys, child key ranges,
// uniform leaf depth, node occupancy (every non-root node holds minKeys to
// btreeOrder-1 keys, a non-leaf root at least one), and that count
// matches the entries present.
func (t *AddrTree) Check() error {
	depth := -1
	walked := 0
	var rec func(n *btreeNode, lo, hi uint64, d int) error
	rec = func(n *btreeNode, lo, hi uint64, d int) error {
		walked += len(n.entries)
		switch {
		case len(n.entries) > btreeOrder-1:
			return fmt.Errorf("shmfs: btree node at depth %d holds %d keys, max %d", d, len(n.entries), btreeOrder-1)
		case d > 0 && len(n.entries) < minKeys:
			return fmt.Errorf("shmfs: btree node at depth %d holds %d keys, min %d", d, len(n.entries), minKeys)
		case d == 0 && !n.leaf() && len(n.entries) == 0:
			return fmt.Errorf("shmfs: btree inner root holds no keys")
		}
		for i := 0; i < len(n.entries); i++ {
			k := uint64(n.entries[i].base)
			if k < lo || k >= hi {
				return fmt.Errorf("shmfs: btree key 0x%x outside (0x%x,0x%x)", k, lo, hi)
			}
			if i > 0 && n.entries[i-1].base >= n.entries[i].base {
				return fmt.Errorf("shmfs: btree keys out of order")
			}
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if d != depth {
				return fmt.Errorf("shmfs: btree leaves at depths %d and %d", depth, d)
			}
			return nil
		}
		if len(n.children) != len(n.entries)+1 {
			return fmt.Errorf("shmfs: btree node has %d entries, %d children", len(n.entries), len(n.children))
		}
		next := lo
		for i, c := range n.children {
			var bound uint64
			if i < len(n.entries) {
				bound = uint64(n.entries[i].base)
			} else {
				bound = hi
			}
			if err := rec(c, next, bound, d+1); err != nil {
				return err
			}
			next = bound + 1
		}
		return nil
	}
	if err := rec(t.root, 0, 1<<33, 0); err != nil {
		return err
	}
	if walked != t.count {
		return fmt.Errorf("shmfs: btree count %d, but %d entries present", t.count, walked)
	}
	return nil
}
