// Package storage implements the XQueC compressed repository (§2.2):
// the node-name dictionary, the structure tree as a balanced-parentheses
// self-index (which answers what the paper's node records and their B+
// index do), the per-path value containers holding individually
// compressed values, the structure summary, and simple statistics. It
// also provides the loader/compressor (Fig. 1, module 1) and binary
// persistence of the whole repository.
package storage

import (
	"fmt"

	"xquec/internal/compress"
)

// NodeID identifies an element or attribute node. IDs are assigned in
// document pre-order starting at 1 (attributes immediately after their
// owner element), so ID order is document order — the property the
// order-preserving operators of the algebra rely on. 0 means "none".
type NodeID uint32

// ValueRef points at one compressed value inside a container.
type ValueRef struct {
	Container int32 // container index in the store
	Index     int32 // record index within the container
}

// ValueKind is the inferred elementary type of a container (§1.1: one
// container per ⟨type, path⟩).
type ValueKind uint8

// Container value kinds.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindDate
	KindDecimal
)

func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDate:
		return "date"
	case KindDecimal:
		return "decimal"
	}
	return fmt.Sprintf("ValueKind(%d)", uint8(k))
}

// Algorithm names accepted in compression plans.
const (
	AlgALM      = "alm"
	AlgHuffman  = "huffman"
	AlgHuTucker = "hutucker"
	AlgBlob     = "blob"
	AlgInt      = "int"
	AlgFloat    = "float"
	AlgDate     = "date"
	AlgDecimal  = "decimal"
)

// CompressionPlan tells the loader how to compress string containers: a
// partition of container paths into source-model groups and an algorithm
// per group. Paths missing from the plan fall back to DefaultAlgorithm.
// Typed (numeric/date) containers ignore the plan — their codecs are
// both smaller and fully order-preserving already.
type CompressionPlan struct {
	// Groups maps a group name to the set of container paths sharing one
	// source model.
	Groups map[string][]string
	// Algorithms maps a group name to a string algorithm name
	// (alm, huffman, hutucker, blob).
	Algorithms map[string]string
	// DefaultAlgorithm is used for paths not covered by any group;
	// empty means AlgALM (the paper's no-workload default, §2.1).
	DefaultAlgorithm string
}

// trainerFor returns the Trainer for an algorithm name.
func trainerFor(name string) (compress.Trainer, error) {
	if t, ok := trainers[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("storage: unknown compression algorithm %q", name)
}
