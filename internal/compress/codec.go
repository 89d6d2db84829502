// Package compress defines the codec abstraction used by the XQueC
// repository: every value container is compressed by a Codec built from
// a sample of the container's values (its "source model", §2.1 of the
// paper). Codecs advertise which predicates they support directly in the
// compressed domain via Properties — the ⟨eq, ineq, wild⟩ triple of the
// paper's cost model, ineq read as order preservation — and estimated
// decompression and storage costs.
package compress

import (
	"encoding/binary"
	"fmt"
)

// Properties describes what a codec can do without decompressing, plus
// whether bytewise comparison of encoded values reflects plaintext order.
type Properties struct {
	// Eq: equality predicates (no prefix matching) evaluate on encoded bytes.
	Eq bool
	// Wild: prefix-matching equality (starts-with) evaluates on encoded bytes.
	Wild bool
	// OrderPreserving: bytes.Compare(Encode(x), Encode(y)) == cmp(x, y),
	// so inequality predicates (<, <=, >, >=) evaluate on encoded bytes.
	OrderPreserving bool
}

// Codec compresses and decompresses individual container values.
// Implementations must be deterministic: equal inputs yield equal outputs
// under the same source model, which is what makes Eq usable on encoded
// bytes.
type Codec interface {
	// Name identifies the algorithm family ("alm", "huffman", ...).
	Name() string
	// Props reports the compressed-domain capabilities.
	Props() Properties
	// Encode appends the encoded form of value to dst and returns it.
	Encode(dst, value []byte) ([]byte, error)
	// Decode appends the decoded form of enc to dst and returns it.
	Decode(dst, enc []byte) ([]byte, error)
	// ModelSize estimates the source-model footprint in bytes (the cₐ
	// term of the cost model).
	ModelSize() int
	// DecodeCost is the relative per-byte decompression cost estimate
	// (the d_c term). Dictionary coders emit multi-byte tokens per step
	// and are cheaper than bit-at-a-time entropy coders.
	DecodeCost() float64
	// AppendModel serializes the source model for repository persistence.
	AppendModel(dst []byte) []byte
}

// Trainer builds a Codec from sample values (one source model per
// container partition, §3).
type Trainer interface {
	Name() string
	Train(values [][]byte) (Codec, error)
}

// modelLoader deserializes a codec of a given family from persisted bytes.
type modelLoader func(data []byte) (Codec, error)

var loaders = map[string]modelLoader{}

// RegisterLoader installs the deserializer for a codec family. Called from
// the codec packages' init-style registration (see Register* in this
// package) so the repository can reload persisted source models.
func RegisterLoader(name string, fn func(data []byte) (Codec, error)) {
	loaders[name] = fn
}

// LoadModel reconstructs a codec from its family name and persisted model.
// The codec may keep data; the caller must not modify it afterwards.
func LoadModel(name string, data []byte) (Codec, error) {
	fn, ok := loaders[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec family %q", name)
	}
	return fn(data)
}

// AppendUvarint / Uvarint are small helpers shared by model serializers.

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarint decodes a uvarint from data, returning the value and the
// number of bytes consumed, or an error on malformed input.
func ReadUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("compress: malformed uvarint")
	}
	return v, n, nil
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadBytes decodes a length-prefixed byte string, returning the string
// and the number of bytes consumed.
func ReadBytes(data []byte) ([]byte, int, error) {
	n, k, err := ReadUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(data)-k) < n {
		return nil, 0, fmt.Errorf("compress: truncated byte string (want %d, have %d)", n, len(data)-k)
	}
	return data[k : k+int(n)], k + int(n), nil
}
