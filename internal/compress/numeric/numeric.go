// Package numeric provides order-preserving fixed-width codecs for the
// typed containers of the repository (integers, decimals, dates). XQueC
// keys containers by ⟨type, path⟩ (§1.1), and numeric values are both
// smaller and directly comparable when coded as order-preserving binary
// keys instead of text.
//
// Each trainer validates on its sample that decoding reproduces the
// original text exactly; if any sample fails (leading zeros, trailing
// decimal zeros, exotic formats), training returns ErrNotRepresentable
// and the loader falls back to a string codec.
package numeric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"xquec/internal/compress"
)

// ErrNotRepresentable reports that the sample values do not round-trip
// through the typed codec and a string codec must be used instead.
var ErrNotRepresentable = errors.New("numeric: values not exactly representable")

func init() {
	compress.RegisterLoader("int", func([]byte) (compress.Codec, error) { return IntCodec{}, nil })
	compress.RegisterLoader("float", func([]byte) (compress.Codec, error) { return FloatCodec{}, nil })
	compress.RegisterLoader("date", func([]byte) (compress.Codec, error) { return DateCodec{}, nil })
}

func opProps() compress.Properties {
	return compress.Properties{Eq: true, Wild: false, OrderPreserving: true}
}

// ---------------------------------------------------------------- ints

// IntCodec codes decimal integer text with the order-preserving
// variable-width encoding of varint.go (2 bytes for small magnitudes).
type IntCodec struct{}

// IntTrainer validates that samples are canonical decimal integers.
type IntTrainer struct{}

// Name implements compress.Trainer.
func (IntTrainer) Name() string { return "int" }

// Train implements compress.Trainer.
func (IntTrainer) Train(values [][]byte) (compress.Codec, error) {
	c := IntCodec{}
	var buf, enc []byte
	for _, v := range values {
		var err error
		if enc, err = c.Encode(enc[:0], v); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
		buf, _ = c.Decode(buf[:0], enc)
		if string(buf) != string(v) {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
	}
	return c, nil
}

// Name implements compress.Codec.
func (IntCodec) Name() string { return "int" }

// Props implements compress.Codec.
func (IntCodec) Props() compress.Properties { return opProps() }

// ModelSize implements compress.Codec: the codec is stateless.
func (IntCodec) ModelSize() int { return 0 }

// DecodeCost implements compress.Codec.
func (IntCodec) DecodeCost() float64 { return 0.05 }

// Encode implements compress.Codec.
func (IntCodec) Encode(dst, value []byte) ([]byte, error) {
	n, err := strconv.ParseInt(string(value), 10, 64)
	if err != nil {
		return dst, err
	}
	return appendOrderedInt(dst, n), nil
}

// Decode implements compress.Codec.
func (IntCodec) Decode(dst, enc []byte) ([]byte, error) {
	n, used, err := decodeOrderedInt(enc)
	if err != nil {
		return dst, err
	}
	if used != len(enc) {
		return dst, fmt.Errorf("numeric: %d trailing bytes in int", len(enc)-used)
	}
	return strconv.AppendInt(dst, n, 10), nil
}

// AppendModel implements compress.Codec.
func (IntCodec) AppendModel(dst []byte) []byte { return dst }

// -------------------------------------------------------------- floats

// FloatCodec codes decimal text as 8 order-preserving bytes using the
// IEEE-754 total-order trick: positive floats get the sign bit flipped,
// negative floats get all bits flipped.
type FloatCodec struct{}

// FloatTrainer validates that samples round-trip through float64.
type FloatTrainer struct{}

// Name implements compress.Trainer.
func (FloatTrainer) Name() string { return "float" }

// Train implements compress.Trainer.
func (FloatTrainer) Train(values [][]byte) (compress.Codec, error) {
	c := FloatCodec{}
	var buf, enc []byte
	for _, v := range values {
		var err error
		if enc, err = c.Encode(enc[:0], v); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
		buf, _ = c.Decode(buf[:0], enc)
		if string(buf) != string(v) {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
	}
	return c, nil
}

// Name implements compress.Codec.
func (FloatCodec) Name() string { return "float" }

// Props implements compress.Codec.
func (FloatCodec) Props() compress.Properties { return opProps() }

// ModelSize implements compress.Codec.
func (FloatCodec) ModelSize() int { return 0 }

// DecodeCost implements compress.Codec.
func (FloatCodec) DecodeCost() float64 { return 0.05 }

// Encode implements compress.Codec.
func (FloatCodec) Encode(dst, value []byte) ([]byte, error) {
	f, err := strconv.ParseFloat(string(value), 64)
	if err != nil {
		return dst, err
	}
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, u), nil
}

// Decode implements compress.Codec.
func (FloatCodec) Decode(dst, enc []byte) ([]byte, error) {
	if len(enc) != 8 {
		return dst, fmt.Errorf("numeric: float value must be 8 bytes, got %d", len(enc))
	}
	u := binary.BigEndian.Uint64(enc)
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	f := math.Float64frombits(u)
	return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
}

// AppendModel implements compress.Codec.
func (FloatCodec) AppendModel(dst []byte) []byte { return dst }

// --------------------------------------------------------------- dates

const dateLayout = "2006-01-02"

// DateCodec codes ISO dates (YYYY-MM-DD) as 4 order-preserving bytes
// (days since 1970-01-01, offset to unsigned).
type DateCodec struct{}

// DateTrainer validates that samples are ISO dates.
type DateTrainer struct{}

// Name implements compress.Trainer.
func (DateTrainer) Name() string { return "date" }

// Train implements compress.Trainer.
func (DateTrainer) Train(values [][]byte) (compress.Codec, error) {
	c := DateCodec{}
	var buf, enc []byte
	for _, v := range values {
		var err error
		if enc, err = c.Encode(enc[:0], v); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
		buf, _ = c.Decode(buf[:0], enc)
		if string(buf) != string(v) {
			return nil, fmt.Errorf("%w: %q", ErrNotRepresentable, v)
		}
	}
	return c, nil
}

// Name implements compress.Codec.
func (DateCodec) Name() string { return "date" }

// Props implements compress.Codec.
func (DateCodec) Props() compress.Properties { return opProps() }

// ModelSize implements compress.Codec.
func (DateCodec) ModelSize() int { return 0 }

// DecodeCost implements compress.Codec.
func (DateCodec) DecodeCost() float64 { return 0.1 }

// Encode implements compress.Codec.
func (DateCodec) Encode(dst, value []byte) ([]byte, error) {
	t, err := time.Parse(dateLayout, string(value))
	if err != nil {
		return dst, err
	}
	days := t.Unix() / 86400
	return binary.BigEndian.AppendUint32(dst, uint32(days)+1<<31), nil
}

// Decode implements compress.Codec.
func (DateCodec) Decode(dst, enc []byte) ([]byte, error) {
	if len(enc) != 4 {
		return dst, fmt.Errorf("numeric: date value must be 4 bytes, got %d", len(enc))
	}
	days := int64(binary.BigEndian.Uint32(enc)) - 1<<31
	t := time.Unix(days*86400, 0).UTC()
	return t.AppendFormat(dst, dateLayout), nil
}

// AppendModel implements compress.Codec.
func (DateCodec) AppendModel(dst []byte) []byte { return dst }
