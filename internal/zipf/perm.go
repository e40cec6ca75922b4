package zipf

// Perm is a deterministic bijection on [0, n) used to scatter Zipf ranks
// across the key domain. Without it, rank r maps to key r and the frequency
// vector is monotone — an unrealistically easy signal for wavelets. The
// paper permutes its generated data; we additionally decorrelate rank from
// key value, which matches real key spaces (e.g. the WorldCup clientobject
// ids are not sorted by popularity).
//
// Implementation: a 4-round Feistel network over a power-of-two domain with
// cycle-walking for arbitrary n. O(1) memory — no table for u = 2^29.
type Perm struct {
	n      int64
	bits   uint // Feistel works on 2^bits >= n, bits even
	half   uint
	mask   uint64
	keys   [4]uint64
	halfLo uint64
}

// NewPerm returns a bijection on [0, n) derived from seed.
func NewPerm(n int64, seed uint64) *Perm {
	if n < 1 {
		panic("zipf: permutation domain must be >= 1")
	}
	bits := uint(1)
	for int64(1)<<bits < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	if bits < 2 {
		bits = 2
	}
	p := &Perm{n: n, bits: bits, half: bits / 2}
	p.mask = (1 << p.half) - 1
	p.halfLo = p.mask
	r := NewRNG(seed ^ 0xfeed5eed)
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	return p
}

// Apply maps x in [0, n) to its permuted image in [0, n).
func (p *Perm) Apply(x int64) int64 {
	if x < 0 || x >= p.n {
		panic("zipf: permutation input out of range")
	}
	v := uint64(x)
	for {
		v = p.feistel(v)
		if int64(v) < p.n {
			return int64(v)
		}
		// Cycle-walk: re-encrypt until we land back inside [0, n).
		// Expected < 2 iterations since 2^bits < 4n.
	}
}

// Invert maps an image back to its pre-image.
func (p *Perm) Invert(y int64) int64 {
	if y < 0 || y >= p.n {
		panic("zipf: permutation input out of range")
	}
	v := uint64(y)
	for {
		v = p.feistelInv(v)
		if int64(v) < p.n {
			return int64(v)
		}
	}
}

func (p *Perm) feistel(v uint64) uint64 {
	l := (v >> p.half) & p.mask
	r := v & p.mask
	for _, k := range p.keys {
		l, r = r, l^(round(r, k)&p.mask)
	}
	return (l << p.half) | r
}

func (p *Perm) feistelInv(v uint64) uint64 {
	l := (v >> p.half) & p.mask
	r := v & p.mask
	for i := len(p.keys) - 1; i >= 0; i-- {
		l, r = r^(round(l, p.keys[i])&p.mask), l
	}
	return (l << p.half) | r
}

// round is a cheap keyed mixing function (murmur-style finalizer).
func round(x, key uint64) uint64 {
	h := x*0xff51afd7ed558ccd + key
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 29
	return h
}
