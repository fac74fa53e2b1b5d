package tabular

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"dart/internal/mat"
	"dart/internal/nn"
	"dart/internal/pq"
)

// ckptHierarchy tabularizes a tiny transformer so checkpoint tests exercise
// every serialized layer kind (linear, msa, layernorm, posembed, residual,
// relu, meanpool).
func ckptHierarchy(t testing.TB) (*Hierarchy, *mat.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	net := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 5, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 1,
	}, rng)
	fit := mat.NewTensor(24, 4, 5)
	for i := range fit.Data {
		fit.Data[i] = rng.NormFloat64()
	}
	res := Tabularize(net, fit, Config{
		Kernel: KernelConfig{K: 4, C: 1, Kind: EncoderLSH},
		Seed:   9,
	})
	probe := mat.NewTensor(7, 4, 5)
	for i := range probe.Data {
		probe.Data[i] = rng.NormFloat64()
	}
	return res.Hierarchy, probe
}

// sameBatches asserts two hierarchies produce bit-identical QueryBatch
// outputs on the probe tensor.
func sameBatches(t *testing.T, want, got *Hierarchy, probe *mat.Tensor) {
	t.Helper()
	w := want.QueryBatch(probe)
	g := got.QueryBatch(probe)
	if len(w.Data) != len(g.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(w.Data), len(g.Data))
	}
	for i, v := range w.Data {
		if g.Data[i] != v {
			t.Fatalf("output[%d] differs: %v vs %v", i, v, g.Data[i])
		}
	}
}

// TestTableCheckpointRoundTrip: save → load reproduces the hierarchy
// bit-identically and carries the metadata through, with the format, model
// label, and class stamped.
func TestTableCheckpointRoundTrip(t *testing.T) {
	h, probe := ckptHierarchy(t)
	var buf bytes.Buffer
	meta := nn.CheckpointMeta{Class: "dart", Version: 7, Source: 3, Examples: 24, Loss: 0.25}
	if err := SaveCheckpoint(&buf, h, meta); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	peeked, err := PeekCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if peeked.Model != hierarchyModelName || peeked.Class != "dart" ||
		peeked.Version != 7 || peeked.Source != 3 || peeked.Format == 0 {
		t.Fatalf("peeked meta %+v", peeked)
	}

	got, gotMeta, err := LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != peeked {
		t.Fatalf("load meta %+v != peek meta %+v", gotMeta, peeked)
	}
	sameBatches(t, h, got, probe)
}

// TestTableCheckpointCorruption is the corruption matrix for the table
// format: truncated file, garbage body, CRC bit-flip, oversized header, and
// an nn parameter checkpoint posing as a table (wrong magic) must all be
// rejected with descriptive errors, never half-decoded.
func TestTableCheckpointCorruption(t *testing.T) {
	h, _ := ckptHierarchy(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, h, nn.CheckpointMeta{Class: "dart", Version: 1}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	nnCkpt := func() []byte {
		net := nn.NewTransformerPredictor(nn.TransformerConfig{
			T: 4, DIn: 5, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 1,
		}, rand.New(rand.NewSource(1)))
		var b bytes.Buffer
		if err := nn.SaveCheckpoint(&b, net, nn.CheckpointMeta{Class: "dart", Version: 1}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()

	oversized := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(oversized[8:12], 1<<31) // implausible metaLen

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x40

	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"truncated header", good[:12], "truncated checkpoint header"},
		{"truncated payload", good[:len(good)-9], "truncated checkpoint"},
		{"garbage", []byte(strings.Repeat("not a table ", 40)), "bad magic"},
		{"crc flip", flipped, "CRC mismatch"},
		{"oversized header", oversized, "implausible"},
		{"nn checkpoint renamed to table", nnCkpt, "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := LoadCheckpoint(bytes.NewReader(tc.raw)); err == nil {
				t.Fatal("corrupt table checkpoint loaded")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if _, err := PeekCheckpoint(bytes.NewReader(tc.raw)); err == nil {
				t.Fatal("corrupt table checkpoint peeked clean")
			}
		})
	}

	// The reverse rename: a table checkpoint must not restore into an nn
	// model either.
	net := nn.NewTransformerPredictor(nn.TransformerConfig{
		T: 4, DIn: 5, DModel: 8, DFF: 16, DOut: 6, Heads: 2, Layers: 1,
	}, rand.New(rand.NewSource(2)))
	if _, err := nn.LoadCheckpoint(bytes.NewReader(good), net); err == nil {
		t.Fatal("table checkpoint loaded as nn parameters")
	} else if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("cross-format load error %q does not mention the magic", err)
	}
}

// layerEncoders collects every prototype encoder of a layer list, in layer
// order, descending into residual blocks and MSA kernels.
func layerEncoders(layers []Layer) []pq.Encoder {
	var out []pq.Encoder
	for _, l := range layers {
		switch v := l.(type) {
		case *LinearKernel:
			out = append(out, v.enc)
		case *MSAKernel:
			out = append(out, v.WQ.enc, v.WK.enc, v.WV.enc, v.WO.enc)
			for _, h := range v.Heads {
				out = append(out, h.encQ, h.encK, h.encS, h.encV)
			}
		case *ResidualTab:
			out = append(out, layerEncoders(v.Inner)...)
		}
	}
	return out
}

// TestTableCheckpointKMeansEncoding: a k-means hierarchy restored from a
// DARTTAB1 checkpoint encodes every probe row exactly like the in-memory
// one, at every encoder — the dimension-major codebook copy the distance
// kernel reads is not serialized, so this proves decoding rebuilds it.
func TestTableCheckpointKMeansEncoding(t *testing.T) {
	m, x, _ := smallModelAndData(23)
	h := Tabularize(m, x, Config{Kernel: KernelConfig{K: 32, C: 2}, Seed: 5}).Hierarchy
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, h, nn.CheckpointMeta{Class: "dart", Version: 1}); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, have := layerEncoders(h.Layers), layerEncoders(got.Layers)
	if len(want) == 0 || len(want) != len(have) {
		t.Fatalf("restored %d encoders, want %d (> 0)", len(have), len(want))
	}
	rng := rand.New(rand.NewSource(4))
	for e, enc := range want {
		if _, ok := enc.(*pq.KMeansEncoder); !ok {
			t.Fatalf("encoder %d is %T, want k-means", e, enc)
		}
		d := enc.C() * enc.SubDim()
		row := make([]float64, d)
		wi, gi := make([]int, enc.C()), make([]int, enc.C())
		for p := 0; p < 2*enc.K(); p++ {
			for c := 0; c < enc.C(); c++ {
				if p < enc.K() { // prototype rows: exact zero-distance hits
					copy(row[c*enc.SubDim():], enc.Center(c, (p+c)%enc.K()))
					continue
				}
				for j := c * enc.SubDim(); j < (c+1)*enc.SubDim(); j++ {
					row[j] = rng.NormFloat64() * 2
				}
			}
			enc.EncodeRow(row, wi)
			have[e].EncodeRow(row, gi)
			for c := range wi {
				if wi[c] != gi[c] {
					t.Fatalf("encoder %d probe %d subspace %d: restored %d, in-memory %d", e, p, c, gi[c], wi[c])
				}
			}
		}
	}
}
