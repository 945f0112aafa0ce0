// Package model describes the transformer model configurations used in the
// paper's evaluation (Table 2), parameter counting, and per-iteration
// memory/compute sizing for mixed-precision ZeRO-3 training.
package model

import "fmt"

// Config is a decoder-only transformer configuration in the style of
// Table 2 of the paper.
type Config struct {
	Name      string
	Layers    int // N_L: number of transformer layers
	Hidden    int // D_H: hidden dimension
	Heads     int // A_H: attention heads
	VocabSize int // tokenizer vocabulary (LLaMA2 default)
	SeqLen    int // training sequence length

	// NominalParams, when non-zero, pins the advertised parameter count
	// (e.g. "40B") instead of the analytically derived one; the paper's
	// table names models by their marketing size.
	NominalParams int64
}

// DefaultVocab is the LLaMA2 tokenizer vocabulary size used throughout the
// paper's methodology.
const DefaultVocab = 32000

// DefaultSeqLen is the sequence length used in the paper (OPT-style 2048).
const DefaultSeqLen = 2048

// Params returns the model's parameter count. If NominalParams is set it
// wins; otherwise the count is derived from the architecture:
//
//	per-layer: 4*D^2 (attention QKVO) + 8*D^2 (MLP, 4x expansion) + 2*2*D (norms)
//	embeddings: V*D (+ D*V tied output) + final norm
func (c Config) Params() int64 {
	if c.NominalParams > 0 {
		return c.NominalParams
	}
	d := int64(c.Hidden)
	l := int64(c.Layers)
	v := int64(c.VocabSize)
	if v == 0 {
		v = DefaultVocab
	}
	perLayer := 12*d*d + 13*d // 12D^2 weights + biases/norms ~ 13D
	return l*perLayer + v*d + d
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s(L=%d,D=%d,H=%d,P=%.1fB)", c.Name, c.Layers, c.Hidden, c.Heads, float64(c.Params())/1e9)
}

// Bytes per element for the two precisions used in mixed-precision training.
const (
	FP16Bytes = 2
	FP32Bytes = 4
)

// Sizing captures the per-model memory footprint relevant to offloading.
type Sizing struct {
	Params          int64 // parameter count
	FP16ModelBytes  int64 // working copy used by fwd/bwd on GPU
	FP16GradBytes   int64 // gradient accumulation buffer (MLP-Offload keeps it on host)
	FP32GradBytes   int64 // upscaled gradients (baseline flushes these)
	OptimStateBytes int64 // FP32 params + momentum + variance (12 B/param)
	// SubgroupFetchBytes* are the bytes moved per parameter for one
	// subgroup fetch during the update phase.
	BaselineFetchBytesPerParam int64 // P32+M32+V32+G32 = 16
	MLPFetchBytesPerParam      int64 // P32+M32+V32     = 12
}

// Size computes the sizing for a configuration.
func (c Config) Size() Sizing {
	p := c.Params()
	return Sizing{
		Params:                     p,
		FP16ModelBytes:             p * FP16Bytes,
		FP16GradBytes:              p * FP16Bytes,
		FP32GradBytes:              p * FP32Bytes,
		OptimStateBytes:            p * 3 * FP32Bytes,
		BaselineFetchBytesPerParam: 16,
		MLPFetchBytesPerParam:      12,
	}
}

// FLOPsPerToken returns the approximate training FLOPs per token for the
// forward pass (2*P multiply-accumulates -> ~2P FLOPs per token forward;
// backward is ~2x forward; activation checkpointing adds a forward
// recomputation, i.e. +1x forward inside backward).
func (c Config) FLOPsPerToken() float64 {
	return 2 * float64(c.Params())
}

// Table2 returns the evaluation models of the paper (Table 2), keyed by
// their marketing size. NominalParams pins the advertised sizes so derived
// optimizer-state volumes match the paper's narrative (e.g. "at 120B
// parameters the optimizer state reaches 1.8 TB").
func Table2() []Config {
	return []Config{
		{Name: "40B", Layers: 128, Hidden: 5120, Heads: 40, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 40e9},
		{Name: "52B", Layers: 64, Hidden: 8192, Heads: 64, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 52e9},
		{Name: "70B", Layers: 80, Hidden: 8192, Heads: 64, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 70e9},
		{Name: "100B", Layers: 124, Hidden: 8192, Heads: 64, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 100e9},
		{Name: "120B", Layers: 96, Hidden: 10240, Heads: 80, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 120e9},
		{Name: "130B", Layers: 70, Hidden: 12288, Heads: 96, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 130e9},
		{Name: "280B", Layers: 72, Hidden: 16384, Heads: 128, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 280e9},
	}
}

// Baseline20B is the 20B model whose optimizer state fits in 512 GB host
// memory, used as the CPU-offload baseline in Figure 3.
func Baseline20B() Config {
	return Config{Name: "20B", Layers: 44, Hidden: 6144, Heads: 48, VocabSize: DefaultVocab, SeqLen: DefaultSeqLen, NominalParams: 20e9}
}

// ByName looks up a Table 2 model (or the 20B baseline) by name.
func ByName(name string) (Config, error) {
	if name == "20B" {
		return Baseline20B(), nil
	}
	for _, c := range Table2() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown config %q", name)
}
