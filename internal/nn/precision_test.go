package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// relDiff is the symmetric relative difference used by the f32 tolerance-
// parity tests: |a−b| / (1 + |a| + |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		err  bool
	}{
		{"", PrecisionAuto, false},
		{"auto", PrecisionAuto, false},
		{"f32", F32, false},
		{"Float32", F32, false},
		{"32", F32, false},
		{"f64", F64, false},
		{"FLOAT64", F64, false},
		{"64", F64, false},
		{"f16", PrecisionAuto, true},
		{"double", PrecisionAuto, true},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if F32.Resolve() != F32 || F64.Resolve() != F64 {
		t.Fatal("concrete precisions must resolve to themselves")
	}
	if p := PrecisionAuto.Resolve(); p != F32 && p != F64 {
		t.Fatalf("PrecisionAuto resolved to %v", p)
	}
}

// TestMLPAtSeedConsistency: an f32 network built from a seed must start from
// exactly the f32-rounded weights of its f64 counterpart (both consume the
// rng stream identically).
func TestMLPAtSeedConsistency(t *testing.T) {
	n64 := NewMLPAt(F64, rand.New(rand.NewSource(31)), 7, 12, 5)
	n32 := NewMLPAt(F32, rand.New(rand.NewSource(31)), 7, 12, 5)
	if n64.Precision() != F64 || n32.Precision() != F32 {
		t.Fatalf("precisions %v / %v, want f64 / f32", n64.Precision(), n32.Precision())
	}
	w64, w32 := n64.FlattenParams(), n32.FlattenParams()
	if len(w64) != len(w32) {
		t.Fatalf("parameter counts differ: %d vs %d", len(w64), len(w32))
	}
	for i := range w64 {
		if float64(float32(w64[i])) != w32[i] {
			t.Fatalf("weight %d: f32 init %v is not the rounding of f64 init %v", i, w32[i], w64[i])
		}
	}
}

// forwardParityTol is the documented f32-vs-f64 forward-pass parity bound:
// the relative error of one batched forward through production-sized layers.
const forwardParityTol = 1e-4

// TestF32ForwardToleranceParity: a forward pass through the f32 core must
// match the f64 reference within the documented relative tolerance. This is
// the tolerance-based replacement for bitwise parity on the f32 path.
func TestF32ForwardToleranceParity(t *testing.T) {
	n64 := NewMLPAt(F64, rand.New(rand.NewSource(8)), 64, 128, 64, 10)
	n32 := NewMLPAt(F32, rand.New(rand.NewSource(8)), 64, 128, 64, 10)
	rng := rand.New(rand.NewSource(9))
	x := NewMat(16, 64)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	out64 := n64.Forward(x.Clone())
	out32 := n32.Forward(x.Clone())
	worst := 0.0
	for i := range out64.Data {
		if d := relDiff(out64.Data[i], out32.Data[i]); d > worst {
			worst = d
		}
	}
	if worst > forwardParityTol {
		t.Fatalf("f32 forward diverged from f64 by relative %v, documented bound %v", worst, forwardParityTol)
	}
	// Infer must be bitwise identical to Forward at f32 too.
	inf32 := n32.Infer(x.Clone())
	for i := range out32.Data {
		if inf32.Data[i] != out32.Data[i] {
			t.Fatalf("f32 Infer[%d] = %v differs from Forward %v", i, inf32.Data[i], out32.Data[i])
		}
	}
}

// stepParityTol is the documented per-step f32-vs-f64 training parity bound
// on the regression workload: after each full forward/backward/Adam step the
// relative difference in loss stays within this bound for the first training
// epochs (divergence compounds slowly; convergence-level agreement is
// asserted separately by the rl and planspace tolerance tests).
const stepParityTol = 1e-3

// TestF32TrainingStepToleranceParity trains two identically seeded MLPs —
// one per precision — with Adam on the same regression batch and requires
// per-step loss parity within stepParityTol for 50 steps, plus an actual
// loss reduction on the f32 path (the f32 kernels must learn, not merely
// agree).
func TestF32TrainingStepToleranceParity(t *testing.T) {
	mk := func(p Precision) *Network { return NewMLPAt(p, rand.New(rand.NewSource(5)), 8, 32, 1) }
	n64, n32 := mk(F64), mk(F32)
	opt64, opt32 := NewAdam(0.01), NewAdam(0.01)

	rng := rand.New(rand.NewSource(6))
	xs := NewMat(32, 8)
	ys := NewMat(32, 1)
	for i := 0; i < 32; i++ {
		var sum float64
		for j := 0; j < 8; j++ {
			v := rng.NormFloat64()
			xs.Set(i, j, v)
			if j%2 == 0 {
				sum += v
			} else {
				sum -= v
			}
		}
		ys.Set(i, 0, sum)
	}

	step := func(n *Network, opt *Adam) float64 {
		n.ZeroGrad()
		out := n.Forward(xs)
		loss, g := MSEBatch(out, ys)
		n.Backward(g)
		opt.StepNet(n)
		return loss
	}

	var first32, last32 float64
	for s := 0; s < 50; s++ {
		l64 := step(n64, opt64)
		l32 := step(n32, opt32)
		if s == 0 {
			first32 = l32
		}
		last32 = l32
		if d := relDiff(l64, l32); d > stepParityTol {
			t.Fatalf("step %d: f64 loss %v vs f32 loss %v (relative %v > %v)", s, l64, l32, d, stepParityTol)
		}
	}
	if last32 > first32/5 {
		t.Fatalf("f32 path failed to learn: first loss %v, last %v", first32, last32)
	}
}

// TestConvertTo: explicit precision conversion must round f64→f32 weight by
// weight, widen f32→f64 exactly, and be the identity when the precision
// already matches.
func TestConvertTo(t *testing.T) {
	n64 := NewMLP(rand.New(rand.NewSource(12)), 5, 9, 3)
	if n64.ConvertTo(F64) != n64 {
		t.Fatal("same-precision ConvertTo must return the receiver")
	}
	n32 := n64.ConvertTo(F32)
	if n32.Precision() != F32 {
		t.Fatalf("converted precision %v, want f32", n32.Precision())
	}
	w64, w32 := n64.FlattenParams(), n32.FlattenParams()
	for i := range w64 {
		if float64(float32(w64[i])) != w32[i] {
			t.Fatalf("weight %d: conversion %v is not the f32 rounding of %v", i, w32[i], w64[i])
		}
	}
	// Widening back is exact with respect to the f32 values.
	back := n32.ConvertTo(F64)
	if back.Precision() != F64 {
		t.Fatalf("widened precision %v, want f64", back.Precision())
	}
	wb := back.FlattenParams()
	for i := range w32 {
		if wb[i] != w32[i] {
			t.Fatalf("weight %d changed on exact f32→f64 widening: %v vs %v", i, wb[i], w32[i])
		}
	}
	// The conversions are deep copies: mutating the original must not leak.
	n64.Params()[0].Value[0] += 100
	if n32.FlattenParams()[0] == n64.FlattenParams()[0] {
		t.Fatal("ConvertTo shares storage with the original")
	}
}

// TestF32CheckpointRoundTrip: an f32 network must gob-round-trip at f32 with
// bitwise-identical outputs (the wire format keeps the native precision).
func TestF32CheckpointRoundTrip(t *testing.T) {
	net := NewMLPAt(F32, rand.New(rand.NewSource(21)), 6, 10, 4)
	x := NewMat(3, 6)
	rng := rand.New(rand.NewSource(22))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := net.Forward(x.Clone())

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Precision() != F32 {
		t.Fatalf("restored precision %v, want f32", back.Precision())
	}
	got := back.Forward(x.Clone())
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("output %d differs after f32 round trip: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// legacyNetState mirrors the pre-versioning (version-0) wire struct: no
// Version, no Precision, float64 payload only.
type legacyNetState struct {
	Kinds []string
	Ins   []int
	Outs  []int
	Vals  [][]float64
}

// TestLegacyV0CheckpointLoads: a gob stream written by the original
// float64-only format must still decode, as an f64 network.
func TestLegacyV0CheckpointLoads(t *testing.T) {
	net := NewMLP(rand.New(rand.NewSource(33)), 4, 6, 2)
	core := net.F64()
	st := legacyNetState{}
	for _, l := range core.Layers {
		switch l := l.(type) {
		case *Linear:
			st.Kinds = append(st.Kinds, "linear")
			st.Ins = append(st.Ins, l.In)
			st.Outs = append(st.Outs, l.Out)
			st.Vals = append(st.Vals, append([]float64(nil), l.W.Value...), append([]float64(nil), l.B.Value...))
		case *ReLU:
			st.Kinds = append(st.Kinds, "relu")
			st.Ins = append(st.Ins, 0)
			st.Outs = append(st.Outs, 0)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}

	var back Network
	if err := back.UnmarshalBinary(buf.Bytes()); err != nil {
		t.Fatalf("legacy checkpoint failed to load: %v", err)
	}
	if back.Precision() != F64 {
		t.Fatalf("legacy checkpoint restored as %v, want f64", back.Precision())
	}
	x := NewMat(1, 4)
	x.Data[0] = 1
	want, got := net.Forward(x.Clone()), back.Forward(x.Clone())
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("legacy round trip changed output %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestUnmarshalRejectsBadData: empty, truncated, and garbage checkpoint
// bytes must error rather than panic or half-load.
func TestUnmarshalRejectsBadData(t *testing.T) {
	good, err := NewMLP(rand.New(rand.NewSource(1)), 3, 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("not a gob stream at all"),
		"truncated": good[:len(good)/2],
	}
	for name, data := range cases {
		var back Network
		if err := back.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s checkpoint decoded without error", name)
		}
	}
}

// TestF32DivideGradsAndFlatten: the precision-agnostic gradient and
// parameter accessors must operate on the f32 core.
func TestF32DivideGradsAndFlatten(t *testing.T) {
	net := NewMLPAt(F32, rand.New(rand.NewSource(2)), 3, 4, 2)
	core := net.F32()
	for _, p := range core.Params() {
		for i := range p.Grad {
			p.Grad[i] = 8
		}
	}
	net.DivideGrads(4)
	for _, p := range core.Params() {
		for i := range p.Grad {
			if p.Grad[i] != 2 {
				t.Fatalf("grad = %v after DivideGrads(4), want 2", p.Grad[i])
			}
		}
	}
	flat := net.FlattenParams()
	want := 3*4 + 4 + 4*2 + 2
	if len(flat) != want {
		t.Fatalf("FlattenParams length %d, want %d", len(flat), want)
	}
}

// TestF32CloneIndependence mirrors the f64 clone tests on the f32 path,
// including the gradient-free inference clone.
func TestF32CloneIndependence(t *testing.T) {
	net := NewMLPAt(F32, rand.New(rand.NewSource(3)), 4, 6, 2)
	x := NewMat(2, 4)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := net.Infer(x.Clone())

	snap := net.CloneForInference()
	for _, p := range snap.F32().Params() {
		if p.Grad != nil {
			t.Fatalf("CloneForInference allocated a gradient buffer for %s", p.Name)
		}
	}
	cl := net.Clone()
	net.F32().Params()[0].Value[0] += 100
	for _, m := range []*Network{snap, cl} {
		got := m.Infer(x.Clone())
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatal("f32 clone shares parameter storage with the original")
			}
		}
	}
}

// --- precision benchmarks ---

// benchMatPair builds an r×k · k×c multiplication at the given precision
// with identical (rounded) contents.
func benchMats[T Float](r, k, c int, seed int64) (*MatOf[T], *MatOf[T]) {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatOf[T](r, k)
	b := NewMatOf[T](k, c)
	for i := range a.Data {
		a.Data[i] = T(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = T(rng.NormFloat64())
	}
	return a, b
}

// BenchmarkMatMulPrecision compares the f64 and f32 kernels on a
// bandwidth-bound batched-training shape (256×512 · 512×256). SetBytes
// reports the true bytes each kernel moves per multiply — the f32 figure is
// exactly half — so the benchmark demonstrates the bandwidth win in both
// wall-time and B/op terms.
func BenchmarkMatMulPrecision(b *testing.B) {
	const r, k, c = 256, 512, 256
	elems := int64(r*k + k*c + r*c)
	b.Run("f64", func(b *testing.B) {
		x, w := benchMats[float64](r, k, c, 1)
		b.SetBytes(elems * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMul(x, w)
		}
	})
	b.Run("f32", func(b *testing.B) {
		x, w := benchMats[float32](r, k, c, 1)
		b.SetBytes(elems * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMul(x, w)
		}
	})
}

// BenchmarkForwardBackwardPrecision compares one full batched
// forward/backward pass through a production-shaped MLP (the
// BenchmarkBatchedTrain network) per precision.
func BenchmarkForwardBackwardPrecision(b *testing.B) {
	run := func(b *testing.B, p Precision) {
		net := NewMLPAt(p, rand.New(rand.NewSource(1)), 256, 128, 64, 64)
		rng := rand.New(rand.NewSource(2))
		x := NewMat(64, 256)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		grad := NewMat(64, 64)
		for i := range grad.Data {
			grad.Data[i] = rng.NormFloat64() * 0.01
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.ZeroGrad()
			net.Forward(x)
			net.Backward(grad)
		}
	}
	b.Run("f64", func(b *testing.B) { run(b, F64) })
	b.Run("f32", func(b *testing.B) { run(b, F32) })
}
