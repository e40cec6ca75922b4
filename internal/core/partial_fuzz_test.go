package core

import (
	"encoding/binary"
	"math"
	"testing"

	"wavelethist/internal/mapred"
)

// fuzzPartials reads partials from fuzz bytes: a partial count byte, then
// per partial five 8-byte header words (split id, three counters, CPU
// bits) and a 2-byte pair count, then per pair an 8-byte key, 8 value
// bytes and a tag. Reading stops where the bytes do.
func fuzzPartials(data []byte) []SplitPartial {
	word := func() (uint64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return v, true
	}
	if len(data) == 0 {
		return nil
	}
	n := int(data[0] % 8)
	data = data[1:]
	var parts []SplitPartial
	for i := 0; i < n; i++ {
		var h [5]uint64
		for j := range h {
			h[j], _ = word()
		}
		part := SplitPartial{
			SplitID: int(h[0]), RecordsRead: int64(h[1]), BytesRead: int64(h[2]),
			InputBytes: int64(h[3]), CPUUnits: math.Float64frombits(h[4]),
		}
		np := 0
		if len(data) >= 2 {
			np, data = int(binary.LittleEndian.Uint16(data)%512), data[2:]
		}
		for j := 0; j < np; j++ {
			key, ok := word()
			val, ok2 := word()
			if !ok || !ok2 || len(data) == 0 {
				break
			}
			part.Pairs = append(part.Pairs, mapred.KV{Key: int64(key), Val: math.Float64frombits(val), Tag: data[0]})
			data = data[1:]
		}
		parts = append(parts, part)
	}
	return parts
}

// fuzzPartialsInput is fuzzPartials' inverse, for seeding.
func fuzzPartialsInput(parts []SplitPartial) []byte {
	b := []byte{byte(len(parts))}
	for _, part := range parts {
		for _, w := range []uint64{uint64(part.SplitID), uint64(part.RecordsRead), uint64(part.BytesRead), uint64(part.InputBytes), math.Float64bits(part.CPUUnits)} {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(part.Pairs)))
		for _, kv := range part.Pairs {
			b = binary.LittleEndian.AppendUint64(b, uint64(kv.Key))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(kv.Val))
			b = append(b, kv.Tag)
		}
	}
	return b
}

func samePartials(a, b []SplitPartial) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SplitID != b[i].SplitID || a[i].RecordsRead != b[i].RecordsRead || a[i].BytesRead != b[i].BytesRead ||
			a[i].InputBytes != b[i].InputBytes || math.Float64bits(a[i].CPUUnits) != math.Float64bits(b[i].CPUUnits) ||
			len(a[i].Pairs) != len(b[i].Pairs) {
			return false
		}
		for j, kv := range a[i].Pairs {
			o := b[i].Pairs[j]
			if kv.Key != o.Key || kv.Tag != o.Tag || math.Float64bits(kv.Val) != math.Float64bits(o.Val) {
				return false
			}
		}
	}
	return true
}

// FuzzPartialsRoundTrip: DecodePartials(EncodePartials(p)) is p bit for
// bit — any keys in any order, any tag, any float bits, any header — and
// every strict prefix of an encoding, or one with a byte flipped, decodes
// to an error or to partials, never a panic.
func FuzzPartialsRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1}, uint16(3))
	keys := SplitPartial{SplitID: 2, RecordsRead: 9, BytesRead: 36, InputBytes: 36, CPUUnits: 11}
	for _, k := range []int64{-5, 3, 3, 0, math.MaxInt64, math.MinInt64, -1, 2, math.MaxInt64, 0} {
		keys.Pairs = append(keys.Pairs, mapred.KV{Key: k, Val: 1})
	}
	tags := SplitPartial{SplitID: 7}
	for t := 0; t < 256; t++ {
		tags.Pairs = append(tags.Pairs, mapred.KV{Key: int64(t) * 3, Val: float64(t), Tag: byte(t)})
	}
	vals := SplitPartial{SplitID: 1, CPUUnits: 0.5}
	for _, bits := range []uint64{
		0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, // NaN payloads, quiet and signaling
		math.Float64bits(math.Copysign(0, -1)), 0, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(1 << 53), math.Float64bits(1<<53 - 1), math.Float64bits(1<<53 + 2),
		1, 0x000fffffffffffff, math.Float64bits(math.SmallestNonzeroFloat64), // subnormals
		math.Float64bits(1), math.Float64bits(-1), math.Float64bits(0.5), math.Float64bits(math.MaxFloat64),
	} {
		vals.Pairs = append(vals.Pairs, mapred.KV{Key: int64(len(vals.Pairs)), Val: math.Float64frombits(bits)})
	}
	headers := []SplitPartial{
		{SplitID: math.MaxInt64, RecordsRead: math.MaxInt64, BytesRead: math.MinInt64, InputBytes: -1, CPUUnits: math.NaN()},
		{SplitID: math.MinInt64, RecordsRead: math.MinInt64, BytesRead: math.MaxInt64, InputBytes: math.MaxInt64, CPUUnits: math.Copysign(0, -1)},
		{SplitID: -1, CPUUnits: math.Inf(-1)},
		{CPUUnits: math.MaxFloat64},
	}
	f.Add(fuzzPartialsInput([]SplitPartial{keys}), uint16(40))
	f.Add(fuzzPartialsInput([]SplitPartial{tags}), uint16(900))
	f.Add(fuzzPartialsInput([]SplitPartial{vals}), uint16(77))
	f.Add(fuzzPartialsInput(headers), uint16(12))
	f.Add(fuzzPartialsInput([]SplitPartial{keys, vals, headers[0]}), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16) {
		parts := fuzzPartials(data)
		b := EncodePartials(parts)
		got, err := DecodePartials(b)
		if err != nil {
			t.Fatalf("decoding an encoding of %d partials: %v", len(parts), err)
		}
		if !samePartials(got, parts) {
			t.Fatalf("round trip changed the partials:\n got %+v\nwant %+v", got, parts)
		}
		step := 1 + len(b)/256
		for n := 0; n < len(b); n += step {
			if _, err := DecodePartials(b[:n]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte payload decoded", n, len(b))
			}
		}
		bad := append([]byte(nil), b...)
		bad[int(flip)%len(bad)] ^= byte(flip>>8) | 1
		_, _ = DecodePartials(bad)
	})
}
