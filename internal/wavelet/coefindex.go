package wavelet

import "math/bits"

// coefIndex maps a tracked coefficient's index to its node number in the
// Maintainer's slab: open addressing with linear probing over a
// power-of-two slot array that is never more than half full, and
// backward-shift deletion, so a slot is either empty or live. Compaction
// deletes thousands of keys at a time; a table that kept tombstones for
// them would make every later probe walk past them. Nothing iterates the
// index, so its layout is invisible to every output.
type coefIndex struct {
	slots []coefSlot
	shift uint // 64 - log2(len(slots)): a key's home slot is its hash's top bits
	n     int  // live slots
}

type coefSlot struct {
	key  int64
	node int32 // node number + 1; 0 marks an empty slot
}

// maxPresized caps the coefficients a new index is sized for up front; a
// shadow set sized past it (a build request may ask for any) grows the
// table by doubling as coefficients are adopted instead.
const maxPresized = 1 << 18

// newCoefIndex returns an index that holds capacity keys without growing.
func newCoefIndex(capacity int) coefIndex {
	lg := uint(bits.Len(uint(max(2*capacity-1, 7)))) // 2·capacity slots, at least 8
	return coefIndex{slots: make([]coefSlot, 1<<lg), shift: 64 - lg}
}

// home is key's first probe: Fibonacci hashing, which spreads the
// consecutive indices of one level's coefficients over the whole table.
func (ix *coefIndex) home(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> ix.shift)
}

// find returns key's slot, or the empty slot that ends its probe run.
func (ix *coefIndex) find(key int64) int {
	mask := len(ix.slots) - 1
	i := ix.home(key)
	for ix.slots[i].node != 0 && ix.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's node number.
func (ix *coefIndex) get(key int64) (int32, bool) {
	s := ix.slots[ix.find(key)]
	return s.node - 1, s.node != 0
}

// put indexes key, which must be absent, as node n.
func (ix *coefIndex) put(key int64, n int32) {
	if 2*(ix.n+1) > len(ix.slots) {
		old := ix.slots
		*ix = newCoefIndex(len(old))
		for _, s := range old {
			if s.node != 0 {
				ix.slots[ix.find(s.key)] = s
				ix.n++
			}
		}
	}
	ix.slots[ix.find(key)] = coefSlot{key: key, node: n + 1}
	ix.n++
}

// del removes key, which must be present. Each later entry of the probe
// run whose home is not between the hole and itself moves back into the
// hole, so every key stays reachable from its home without a tombstone.
func (ix *coefIndex) del(key int64) {
	mask := len(ix.slots) - 1
	hole := ix.find(key)
	for j := (hole + 1) & mask; ix.slots[j].node != 0; j = (j + 1) & mask {
		if (j-ix.home(ix.slots[j].key))&mask >= (j-hole)&mask {
			ix.slots[hole], hole = ix.slots[j], j
		}
	}
	ix.slots[hole] = coefSlot{}
	ix.n--
}
