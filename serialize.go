package wavelethist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"wavelethist/internal/wavelet"
)

// Binary serialization for histograms, so the summary built by an
// expensive distributed job can be persisted, cached by a query
// optimizer, or shipped to other services. The format is tiny by design —
// that is the histogram's raison d'être: 16 bytes of header plus 12 bytes
// per coefficient (4-byte index, 8-byte value) for 1D, 16 bytes per
// coefficient for 2D (8-byte packed index).

const (
	histMagic   = uint32(0x57485354) // "WHST"
	histMagic2D = uint32(0x57483244) // "WH2D"
	maintMagic  = uint32(0x574D4E54) // "WMNT"
)

// Unmarshal decodes any blob this package writes, choosing the decoder by
// the blob's 4-byte magic: it returns a *Histogram ("WHST"), a
// *Histogram2D ("WH2D") or a *MaintainedHistogram ("WMNT").
func Unmarshal(b []byte) (any, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wavelethist: truncated blob (%d bytes)", len(b))
	}
	switch magic := binary.LittleEndian.Uint32(b); magic {
	case histMagic:
		return UnmarshalHistogram(b)
	case histMagic2D:
		return UnmarshalHistogram2D(b)
	case maintMagic:
		return UnmarshalMaintainedHistogram(b)
	default:
		return nil, fmt.Errorf("wavelethist: unknown blob magic %#08x", magic)
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	if h.rep.U > math.MaxUint32 {
		return nil, fmt.Errorf("wavelethist: domain %d too large for the 1D wire format", h.rep.U)
	}
	b := make([]byte, 0, 16+12*len(h.rep.Coefs))
	b = binary.LittleEndian.AppendUint32(b, histMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.rep.Coefs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.rep.U))
	for _, c := range h.rep.Coefs {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Value))
	}
	return b, nil
}

// UnmarshalHistogram parses a histogram serialized by MarshalBinary.
func UnmarshalHistogram(b []byte) (*Histogram, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("wavelethist: truncated histogram (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != histMagic {
		return nil, fmt.Errorf("wavelethist: bad histogram magic")
	}
	k := int(binary.LittleEndian.Uint32(b[4:]))
	u := int64(binary.LittleEndian.Uint64(b[8:]))
	if !wavelet.IsPowerOfTwo(u) || u > math.MaxUint32 {
		return nil, fmt.Errorf("wavelethist: corrupt domain %d", u)
	}
	if k < 0 || k > (len(b)-16)/12 {
		return nil, fmt.Errorf("wavelethist: corrupt coefficient count %d", k)
	}
	if len(b) != 16+12*k {
		return nil, fmt.Errorf("wavelethist: %d trailing bytes after %d coefficients", len(b)-16-12*k, k)
	}
	coefs := make([]wavelet.Coef, k)
	off := 16
	for i := range coefs {
		idx := int64(binary.LittleEndian.Uint32(b[off:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:]))
		if idx >= u {
			return nil, fmt.Errorf("wavelethist: coefficient index %d outside domain %d", idx, u)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("wavelethist: non-finite coefficient value at index %d", idx)
		}
		coefs[i] = wavelet.Coef{Index: idx, Value: val}
		off += 12
	}
	return &Histogram{rep: wavelet.NewRepresentation(u, coefs)}, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for 2D histograms.
func (h *Histogram2D) MarshalBinary() ([]byte, error) {
	if h.rep.U > 1<<31 {
		return nil, fmt.Errorf("wavelethist: grid side %d too large for the 2D wire format", h.rep.U)
	}
	b := make([]byte, 0, 16+16*len(h.rep.Coefs))
	b = binary.LittleEndian.AppendUint32(b, histMagic2D)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.rep.Coefs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.rep.U))
	for _, c := range h.rep.Coefs {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Value))
	}
	return b, nil
}

// UnmarshalHistogram2D parses a 2D histogram.
func UnmarshalHistogram2D(b []byte) (*Histogram2D, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("wavelethist: truncated 2D histogram (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != histMagic2D {
		return nil, fmt.Errorf("wavelethist: bad 2D histogram magic")
	}
	k := int(binary.LittleEndian.Uint32(b[4:]))
	u := int64(binary.LittleEndian.Uint64(b[8:]))
	if !wavelet.IsPowerOfTwo(u) || u > 1<<31 {
		return nil, fmt.Errorf("wavelethist: corrupt grid side %d", u)
	}
	if k < 0 || k > (len(b)-16)/16 {
		return nil, fmt.Errorf("wavelethist: corrupt coefficient count %d", k)
	}
	if len(b) != 16+16*k {
		return nil, fmt.Errorf("wavelethist: %d trailing bytes after %d coefficients", len(b)-16-16*k, k)
	}
	coefs := make([]wavelet.Coef, k)
	off := 16
	for i := range coefs {
		idx := int64(binary.LittleEndian.Uint64(b[off:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:]))
		if idx >= u*u || idx < 0 {
			return nil, fmt.Errorf("wavelethist: coefficient index %d outside grid %d²", idx, u)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("wavelethist: non-finite coefficient value at index %d", idx)
		}
		coefs[i] = wavelet.Coef{Index: idx, Value: val}
		off += 16
	}
	return &Histogram2D{rep: wavelet.NewRepresentation2D(u, coefs)}, nil
}

// MarshalBinary implements encoding.BinaryMarshaler for maintained
// histograms: it captures the full tracked set (retained + shadow), so a
// restart resumes maintenance with the exact partition it left off with —
// no rebuild, no accuracy loss. 24-byte header (magic, k, shadow, count,
// u) plus 12 bytes per tracked coefficient, same coefficient layout as the
// 1D histogram format. Coefficients are written in index order so equal
// maintainer states serialize to equal bytes.
func (h *MaintainedHistogram) MarshalBinary() ([]byte, error) {
	u := h.m.Domain()
	if u > math.MaxUint32 {
		return nil, fmt.Errorf("wavelethist: domain %d too large for the maintainer wire format", u)
	}
	coefs := h.m.TrackedCoefs()
	sort.Slice(coefs, func(i, j int) bool { return coefs[i].Index < coefs[j].Index })
	b := make([]byte, 0, 24+12*len(coefs))
	b = binary.LittleEndian.AppendUint32(b, maintMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.m.K()))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.m.Shadow()))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(coefs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(u))
	for _, c := range coefs {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Value))
	}
	return b, nil
}

// UnmarshalMaintainedHistogram parses a maintainer snapshot written by
// MarshalBinary and re-seeds a live maintainer from it. Because the
// snapshot holds the complete tracked set and the maintainer's
// retained/shadow partition is a pure function of coefficient strengths,
// the restored maintainer is state-identical to the one that was saved.
func UnmarshalMaintainedHistogram(b []byte) (*MaintainedHistogram, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("wavelethist: truncated maintainer snapshot (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != maintMagic {
		return nil, fmt.Errorf("wavelethist: bad maintainer magic")
	}
	k := int(binary.LittleEndian.Uint32(b[4:]))
	shadow := int(binary.LittleEndian.Uint32(b[8:]))
	n := int(binary.LittleEndian.Uint32(b[12:]))
	u := int64(binary.LittleEndian.Uint64(b[16:]))
	if !wavelet.IsPowerOfTwo(u) || u > math.MaxUint32 {
		return nil, fmt.Errorf("wavelethist: corrupt domain %d", u)
	}
	if k < 1 || shadow < 0 {
		return nil, fmt.Errorf("wavelethist: corrupt maintainer shape k=%d shadow=%d", k, shadow)
	}
	if n < 0 || n > (len(b)-24)/12 {
		return nil, fmt.Errorf("wavelethist: corrupt tracked count %d", n)
	}
	if len(b) != 24+12*n {
		return nil, fmt.Errorf("wavelethist: %d trailing bytes after %d tracked coefficients", len(b)-24-12*n, n)
	}
	coefs := make([]wavelet.Coef, n)
	off := 24
	prev := int64(-1)
	for i := range coefs {
		idx := int64(binary.LittleEndian.Uint32(b[off:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:]))
		if idx >= u {
			return nil, fmt.Errorf("wavelethist: tracked index %d outside domain %d", idx, u)
		}
		if idx <= prev {
			return nil, fmt.Errorf("wavelethist: tracked indexes out of order at %d", idx)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("wavelethist: non-finite tracked value at index %d", idx)
		}
		coefs[i] = wavelet.Coef{Index: idx, Value: val}
		prev = idx
		off += 12
	}
	return &MaintainedHistogram{m: wavelet.RestoreMaintainer(u, coefs, k, shadow)}, nil
}
