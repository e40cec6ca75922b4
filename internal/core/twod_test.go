package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// make2DDataset generates records with packed (x, y) keys: x and y drawn
// from correlated Zipf marginals, like a (src, dst) traffic matrix.
func make2DDataset(t testing.TB, n, u int64, chunk int64, seed uint64) (*hdfs.File, [][]float64) {
	t.Helper()
	fs := hdfs.NewFileSystem(4, chunk)
	w, err := fs.Create("grid", 8) // packed keys need 8-byte records
	if err != nil {
		t.Fatal(err)
	}
	rng := zipf.NewRNG(seed)
	zx := zipf.NewZipf(u, 1.1)
	zy := zipf.NewZipf(u, 0.9)
	dense := make([][]float64, u)
	for i := range dense {
		dense[i] = make([]float64, u)
	}
	for i := int64(0); i < n; i++ {
		x := zx.Sample(rng) - 1
		y := zy.Sample(rng) - 1
		if rng.Bernoulli(0.3) {
			y = x // diagonal correlation hotspot
		}
		w.Append(wavelet.Key2D(x, y, u))
		dense[x][y]++
	}
	return w.Close(), dense
}

func true2DTopK(dense [][]float64, u int64, k int) []wavelet.Coef {
	w := wavelet.Transform2D(dense)
	coefs := make([]wavelet.Coef, 0)
	for i := int64(0); i < u; i++ {
		for j := int64(0); j < u; j++ {
			if w[i][j] != 0 {
				coefs = append(coefs, wavelet.Coef{Index: wavelet.Key2D(i, j, u), Value: w[i][j]})
			}
		}
	}
	return wavelet.SelectTopK(coefs, k)
}

func assert2DExact(t *testing.T, name string, got *wavelet.Representation2D, dense [][]float64, u int64, k int) {
	t.Helper()
	want := true2DTopK(dense, u, k)
	if len(got.Coefs) != len(want) {
		t.Fatalf("%s: %d coefficients, want %d", name, len(got.Coefs), len(want))
	}
	w := wavelet.Transform2D(dense)
	for i := range want {
		gm, wm := math.Abs(got.Coefs[i].Value), math.Abs(want[i].Value)
		if math.Abs(gm-wm) > 1e-6*(1+wm) {
			t.Errorf("%s: |coef[%d]| = %v, want %v", name, i, gm, wm)
		}
	}
	for _, c := range got.Coefs {
		ci, cj := wavelet.SplitKey2D(c.Index, u)
		if math.Abs(c.Value-w[ci][cj]) > 1e-6*(1+math.Abs(w[ci][cj])) {
			t.Errorf("%s: coef (%d,%d) = %v, true %v", name, ci, cj, c.Value, w[ci][cj])
		}
	}
}

func TestSendV2DExact(t *testing.T) {
	const u = 32
	f, dense := make2DDataset(t, 20000, u, 2048, 3)
	out, err := NewSendV2D().Run(context.Background(), f, Params{U: u, K: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	assert2DExact(t, "Send-V-2D", out.Rep, dense, u, 15)
}

func TestHWTopk2DExact(t *testing.T) {
	const u = 32
	f, dense := make2DDataset(t, 20000, u, 2048, 5)
	out, err := NewHWTopk2D().Run(context.Background(), f, Params{U: u, K: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assert2DExact(t, "H-WTopk-2D", out.Rep, dense, u, 10)
	if out.Metrics.Rounds != 3 {
		t.Errorf("rounds = %d", out.Metrics.Rounds)
	}
}

func TestHWTopk2DMatchesSendV2D(t *testing.T) {
	const u = 16
	f, _ := make2DDataset(t, 8000, u, 1024, 7)
	p := Params{U: u, K: 12, Seed: 3}
	sv, err := NewSendV2D().Run(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewHWTopk2D().Run(context.Background(), f, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv.Rep.Coefs {
		if math.Abs(math.Abs(sv.Rep.Coefs[i].Value)-math.Abs(hw.Rep.Coefs[i].Value)) > 1e-9 {
			t.Errorf("coef %d magnitude differs between Send-V-2D and H-WTopk-2D", i)
		}
	}
	// (No communication comparison here: a 16×16 grid has only 256
	// distinct keys, far below the paper's split-size regime; the 1D
	// test asserts the comm ordering at realistic scale.)
}

func TestTwoLevelS2DApproximates(t *testing.T) {
	const u = 32
	f, dense := make2DDataset(t, 60000, u, 2048, 9)
	out, err := NewTwoLevelS2D().Run(context.Background(), f, Params{U: u, K: 20, Epsilon: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rep.Coefs == nil {
		t.Fatal("empty representation")
	}
	recon := out.Rep.Reconstruct()
	sse := wavelet.SSE2D(dense, recon)
	var energy float64
	for i := range dense {
		energy += wavelet.Energy(dense[i])
	}
	if sse >= energy {
		t.Errorf("2D SSE %v >= energy %v", sse, energy)
	}
	// Sampling must not read the whole file.
	if out.Metrics.MapBytesRead >= f.Size() {
		t.Errorf("TwoLevel-S-2D read %d of %d bytes", out.Metrics.MapBytesRead, f.Size())
	}
}

func Test2DValidation(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1024)
	w, _ := fs.Create("x", 8)
	w.Append(0)
	f := w.Close()
	if _, err := NewSendV2D().Run(context.Background(), f, Params{U: 3, K: 5}); err == nil {
		t.Error("accepted non-power-of-two 2D side")
	}
	if _, err := NewTwoLevelS2D().Run(context.Background(), f, Params{U: 3, K: 5, Epsilon: 0.1}); err == nil {
		t.Error("accepted non-power-of-two 2D side")
	}
}

func TestIndexSetWideIndices(t *testing.T) {
	ids := []int64{1, 0xFFFFFFFF + 5, 42}
	got, err := decodeIndexSet(encodeIndexSet(ids))
	if err != nil {
		t.Fatal(err)
	}
	// Decoding normalizes to ascending order, whatever order was shipped.
	if want := []int64{1, 42, 0xFFFFFFFF + 5}; !slices.Equal(got, want) {
		t.Errorf("round trip = %v, want %v", got, want)
	}
	if indexSetBytes(ids) != 24 {
		t.Errorf("wide index set bytes = %d, want 24", indexSetBytes(ids))
	}
	if indexSetBytes([]int64{1, 2}) != 8 {
		t.Errorf("narrow index set bytes = %d, want 8", indexSetBytes([]int64{1, 2}))
	}
}
