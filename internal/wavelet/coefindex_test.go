package wavelet

import (
	"testing"

	"wavelethist/internal/zipf"
)

// endHoming returns n keys whose home is the last slot of every table of
// up to 64 slots (the top six bits of their hash are set): puts of two or
// more of them run off the table's end and wrap to slot 0.
func endHoming(n int) []int64 {
	ix := newCoefIndex(32) // 64 slots
	var keys []int64
	for key := int64(0); len(keys) < n; key++ {
		if ix.home(key) == len(ix.slots)-1 {
			keys = append(keys, key)
		}
	}
	return keys
}

// checkCoefIndex compares ix with the model and checks the invariant
// backward-shift deletion keeps: no empty slot lies between a live key's
// home and its slot, so every probe that starts at a key's home finds it.
func checkCoefIndex(t *testing.T, step int, ix *coefIndex, model map[int64]int32) {
	t.Helper()
	if ix.n != len(model) || 2*ix.n > len(ix.slots) {
		t.Fatalf("step %d: %d keys in %d slots, model %d", step, ix.n, len(ix.slots), len(model))
	}
	mask := len(ix.slots) - 1
	live := 0
	for i, s := range ix.slots {
		if s.node == 0 {
			continue
		}
		live++
		if want, ok := model[s.key]; !ok || s.node-1 != want {
			t.Fatalf("step %d: slot %d holds key %d node %d, model (%d, %v)", step, i, s.key, s.node-1, want, ok)
		}
		for j := ix.home(s.key); j != i; j = (j + 1) & mask {
			if ix.slots[j].node == 0 {
				t.Fatalf("step %d: key %d in slot %d, but slot %d between it and its home %d is empty", step, s.key, i, j, ix.home(s.key))
			}
		}
	}
	if live != ix.n {
		t.Fatalf("step %d: %d live slots, count says %d", step, live, ix.n)
	}
}

// FuzzCoefIndex runs put/get/delete sequences against a map model. Each
// op is two bytes: the op (put, get, delete) and the key — below 128 one
// of eight keys that all home to the table's last slot, so runs wrap past
// its end and deletions land mid-run; otherwise a small key, so nearby
// homes collide too. The table starts at 8 slots and grows as it fills.
func FuzzCoefIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 1, 2, 1, 0}) // a run wrapped to slots 0 and 1, its middle deleted
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 0, 2, 3, 1, 5, 1, 4})
	f.Add([]byte{0, 200, 0, 201, 0, 0, 0, 202, 2, 200, 1, 201, 1, 0, 2, 0, 1, 202})
	f.Add([]byte{0, 128, 0, 129, 0, 130, 0, 131, 0, 132, 0, 133, 0, 134, 0, 135, 0, 136, 2, 131, 2, 128})
	pool := endHoming(8)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ix, model := newCoefIndex(4), map[int64]int32{}
		next := int32(0)
		for step := 0; step+1 < len(ops); step += 2 {
			key := int64(ops[step+1]) - 128
			if ops[step+1] < 128 {
				key = pool[ops[step+1]%8]
			}
			n, ok := ix.get(key)
			if want, has := model[key]; ok != has || (ok && n != want) {
				t.Fatalf("step %d: get(%d) = (%d, %v), model (%d, %v)", step, key, n, ok, want, has)
			}
			switch op := ops[step] % 3; {
			case op == 0 && !ok:
				ix.put(key, next)
				model[key] = next
				next++
			case op == 2 && ok:
				ix.del(key)
				delete(model, key)
			}
			checkCoefIndex(t, step, &ix, model)
		}
	})
}

// TestCoefIndexWrapsAndShifts pins the layout of a wrapped run: three keys
// homing to the last of 8 slots occupy slots 7, 0 and 1, and deleting the
// middle one shifts the third back into slot 0.
func TestCoefIndexWrapsAndShifts(t *testing.T) {
	ix, keys := newCoefIndex(4), endHoming(3)
	for i, key := range keys {
		ix.put(key, int32(i))
	}
	if ix.slots[7].key != keys[0] || ix.slots[0].key != keys[1] || ix.slots[1].key != keys[2] {
		t.Fatalf("run is not 7, 0, 1: %+v", ix.slots)
	}
	ix.del(keys[1])
	if ix.slots[0].key != keys[2] || ix.slots[1].node != 0 {
		t.Fatalf("delete left a hole mid-run: %+v", ix.slots)
	}
	if n, ok := ix.get(keys[2]); !ok || n != 2 {
		t.Fatalf("get after shift = (%d, %v)", n, ok)
	}
}

// TestRestoreMaintainerGrowsIndex restores a tracked set four times past
// 2(k+shadow), more than the index is sized for: the table must double to
// hold it, and the restored maintainer must then follow the reference
// (which tracks the same set) through its first compaction and beyond.
func TestRestoreMaintainerGrowsIndex(t *testing.T) {
	const u, k, shadow = 1 << 12, 4, 12
	r := zipf.NewRNG(9)
	ref := &refMaintainer{u: u, k: k, shadow: shadow, coefs: map[int64]float64{}}
	for len(ref.coefs) < 8*(k+shadow) {
		ref.coefs[r.Int63n(u)] = float64(r.Int63n(41) - 20)
	}
	var tracked []Coef
	for idx, v := range ref.coefs {
		if v == 0 {
			delete(ref.coefs, idx)
		} else {
			tracked = append(tracked, Coef{Index: idx, Value: v})
		}
	}
	sized := len(NewMaintainer(u, nil, k, shadow).index.slots)
	m := RestoreMaintainer(u, tracked, k, shadow)
	if got := len(m.index.slots); got <= sized || 2*m.Tracked() > got {
		t.Fatalf("restoring %d coefficients: %d slots (a new maintainer has %d)", m.Tracked(), got, sized)
	}
	checkAgainstRef(t, 0, m, ref, r)
	for step := 1; step <= 400; step++ {
		x, delta := r.Int63n(u), float64(1+r.Int63n(2))
		m.Update(x, delta)
		ref.update(x, delta)
		checkAgainstRef(t, step, m, ref, r)
	}
}
