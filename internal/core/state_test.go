package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

func newTestFS(chunk int64) *hdfs.FileSystem {
	return hdfs.NewFileSystem(4, chunk)
}

// decodeCoefs reads a state file back; no round reads one, so the
// decoder is the tests' own.
func decodeCoefs(b []byte) ([]wavelet.Coef, error) {
	if len(b) < 8 || uint64(len(b)-8) != 16*binary.LittleEndian.Uint64(b) {
		return nil, fmt.Errorf("state file of %d bytes", len(b))
	}
	coefs := make([]wavelet.Coef, (len(b)-8)/16)
	for i := range coefs {
		rec := b[8+16*i:]
		coefs[i] = wavelet.Coef{Index: int64(binary.LittleEndian.Uint64(rec)), Value: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))}
	}
	return coefs, nil
}

func TestCoefsRoundTrip(t *testing.T) {
	coefs := []wavelet.Coef{{Index: 0, Value: 1.5}, {Index: 7, Value: 0}, {Index: 1 << 30, Value: -2.25}}
	got, err := decodeCoefs(encodeCoefs(coefs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(coefs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range coefs {
		if got[i] != coefs[i] {
			t.Errorf("coef %d: %+v != %+v", i, got[i], coefs[i])
		}
	}
}

func TestCoefsRoundTripEmpty(t *testing.T) {
	got, err := decodeCoefs(encodeCoefs(nil, nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}

func TestDecodersQuickNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = decodeIndexSet(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSetRoundTrip(t *testing.T) {
	ids := []int64{0, 1, 42, 1<<32 - 1}
	got, err := decodeIndexSet(encodeIndexSet(ids))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("round trip = %v, want %v", got, ids)
	}
}

// TestEncodeCoefsSkipsSent: the round-1 state file is the coefficient
// list minus the shipped ids, merged out in one pass.
func TestEncodeCoefsSkipsSent(t *testing.T) {
	coefs := []wavelet.Coef{{Index: 0, Value: 1}, {Index: 3, Value: -2}, {Index: 9, Value: 4}, {Index: 12, Value: 0.5}}
	for _, tc := range []struct {
		skip []int64
		want []wavelet.Coef
	}{
		{nil, coefs},
		{[]int64{0}, coefs[1:]},
		{[]int64{3, 12}, []wavelet.Coef{coefs[0], coefs[2]}},
		{[]int64{0, 3, 9, 12}, nil},
	} {
		b := encodeCoefs(coefs, tc.skip)
		if len(b) != 8+16*len(tc.want) {
			t.Errorf("skip %v: %d bytes, want %d", tc.skip, len(b), 8+16*len(tc.want))
		}
		got, err := decodeCoefs(b)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("skip %v: decoded %v (%v), want %v", tc.skip, got, err, tc.want)
		}
	}
}

func TestDecodeIndexSetCorrupt(t *testing.T) {
	enc := encodeIndexSet([]int64{1, 2, 3})
	cases := [][]byte{nil, {9}, enc[:10]}
	bad := append([]byte(nil), enc...)
	bad[8] = 7 // invalid width byte
	cases = append(cases, bad)
	for i, b := range cases {
		if _, err := decodeIndexSet(b); err == nil {
			t.Errorf("case %d: corrupt index set accepted", i)
		}
	}
}

func TestBitsetForEachSet(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want []int
	}{
		{130, []int{0, 1, 64, 65, 127, 129}},
		{128, []int{0, 63, 64, 127}}, // bits 0 and 63 of both words
		{1, []int{0}},
		{1, nil},
		{64, []int{0, 63}},
		{64, []int{63}},
		{65, []int{0, 63, 64}},
		{65, []int{64}},
	} {
		b := newBitset(tc.m)
		for _, i := range tc.want {
			b.Set(i)
		}
		var got []int
		b.ForEachSet(func(i int) { got = append(got, i) })
		if !slices.Equal(got, tc.want) || b.Count() != len(tc.want) {
			t.Errorf("m=%d: ForEachSet %v, Count %d; want %v", tc.m, got, b.Count(), tc.want)
		}
	}
}

func TestBitsetQuick(t *testing.T) {
	f := func(raw []uint16, sizeSel uint8) bool {
		n := int(sizeSel)%200 + 1
		b := newBitset(n)
		ref := make(map[int]bool)
		for _, r := range raw {
			i := int(r) % n
			b.Set(i)
			ref[i] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end property: H-WTopk returns exactly Send-V's coefficient
// magnitudes on arbitrary random datasets (domains, skews, split sizes).
func TestHWTopkEquivalenceQuick(t *testing.T) {
	f := func(rawKeys []uint16, uSel, kSel, chunkSel uint8) bool {
		if len(rawKeys) == 0 {
			return true
		}
		u := int64(1) << (4 + uSel%6) // 16..512
		k := int(kSel%12) + 1
		chunk := int64(64) << (chunkSel % 4) // 64..512 bytes
		fs := newTestFS(chunk)
		w, err := fs.Create("d", 4)
		if err != nil {
			return false
		}
		for _, rk := range rawKeys {
			w.Append(int64(rk) % u)
		}
		f := w.Close()
		p := Params{U: u, K: k, Seed: 9}
		sv, err := NewSendV().Run(context.Background(), f, p)
		if err != nil {
			return false
		}
		hw, err := NewHWTopk().Run(context.Background(), f, p)
		if err != nil {
			return false
		}
		if len(sv.Rep.Coefs) != len(hw.Rep.Coefs) {
			return false
		}
		for i := range sv.Rep.Coefs {
			a, b := sv.Rep.Coefs[i].Value, hw.Rep.Coefs[i].Value
			if abs(abs(a)-abs(b)) > 1e-9*(1+abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
