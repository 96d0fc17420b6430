package efdedup

import (
	"efdedup/internal/chunk"
	"efdedup/internal/estimate"
)

// This file exposes MinHash/LSH similarity estimation, one of the paper's
// future-work directions (Sec. VII). (Variable-size chunking, another, is
// NewContentDefinedChunker in runtime.go.)

// MinHash similarity (paper: "improve ... estimation through techniques
// like locality sensitive hashing").
type (
	// MinHashSignature sketches a chunk set in k slots; matching-slot
	// fraction estimates Jaccard similarity.
	MinHashSignature = estimate.Signature
)

// DefaultMinHashSize is the default sketch size (standard error ≈ 1/√k).
const DefaultMinHashSize = estimate.DefaultSignatureSize

// SketchChunks sketches a chunk-ID set.
func SketchChunks(ids []ChunkID, k int) (*MinHashSignature, error) {
	converted := make([]chunk.ID, len(ids))
	copy(converted, ids)
	return estimate.NewSignature(converted, k)
}

// SketchStream chunks data and sketches its chunk-ID set.
func SketchStream(data []byte, chunker Chunker, k int) (*MinHashSignature, error) {
	return estimate.SketchStream(data, chunker, k)
}

// SimilarityMatrix computes pairwise estimated Jaccard similarity of the
// sampled sources in one pass per source — the cheap alternative to
// Algorithm 1's exponential subset measurement for large edge fleets.
// It returns the sorted source IDs and the matrix indexed by them.
func SimilarityMatrix(samples map[int][][]byte, chunker Chunker, k int) ([]int, [][]float64, error) {
	return estimate.SimilarityMatrix(samples, chunker, k)
}
