package numeric

import (
	"fmt"
	"strconv"

	"xquec/internal/compress"
)

func init() {
	compress.RegisterLoader("decimal", func(data []byte) (compress.Codec, error) {
		scale, _, err := compress.ReadUvarint(data)
		if err != nil || scale > 18 {
			return nil, fmt.Errorf("numeric: bad decimal scale")
		}
		return DecimalCodec{Scale: int(scale)}, nil
	})
}

// DecimalCodec codes fixed-point decimal text — the ubiquitous price
// format "19.99" — as an order-preserving scaled integer. All values of
// a container must share the same number of fractional digits (the
// Scale); the trainer infers and validates it.
type DecimalCodec struct {
	Scale int
}

// DecimalTrainer infers the shared scale and validates round-trips.
type DecimalTrainer struct{}

// Name implements compress.Trainer.
func (DecimalTrainer) Name() string { return "decimal" }

// Train implements compress.Trainer.
func (DecimalTrainer) Train(values [][]byte) (compress.Codec, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: no sample", ErrNotRepresentable)
	}
	scale := -1
	for _, v := range values {
		s := fracDigits(v)
		if s <= 0 {
			return nil, fmt.Errorf("%w: %q is not fixed-point", ErrNotRepresentable, v)
		}
		if scale == -1 {
			scale = s
		} else if s != scale {
			return nil, fmt.Errorf("%w: mixed scales %d and %d", ErrNotRepresentable, scale, s)
		}
	}
	c := DecimalCodec{Scale: scale}
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

// fracDigits returns the number of digits after the single '.', or -1.
func fracDigits(v []byte) int {
	dot := -1
	start := 0
	if len(v) > 0 && v[0] == '-' {
		start = 1
	}
	if start >= len(v) {
		return -1
	}
	for i := start; i < len(v); i++ {
		switch {
		case v[i] == '.':
			if dot >= 0 {
				return -1
			}
			dot = i
		case v[i] < '0' || v[i] > '9':
			return -1
		}
	}
	if dot < 0 || dot == start || dot == len(v)-1 {
		return -1
	}
	return len(v) - dot - 1
}

// Name implements compress.Codec.
func (DecimalCodec) Name() string { return "decimal" }

// Props implements compress.Codec.
func (DecimalCodec) Props() compress.Properties { return opProps() }

// ModelSize implements compress.Codec.
func (DecimalCodec) ModelSize() int { return 1 }

// DecodeCost implements compress.Codec.
func (DecimalCodec) DecodeCost() float64 { return 0.05 }

// Encode implements compress.Codec.
func (c DecimalCodec) Encode(dst, value []byte) ([]byte, error) {
	if fracDigits(value) != c.Scale {
		return dst, fmt.Errorf("numeric: %q does not have scale %d", value, c.Scale)
	}
	s := string(value)
	neg := false
	if s[0] == '-' {
		neg = true
		s = s[1:]
	}
	dot := len(s) - c.Scale - 1
	ip, err := strconv.ParseInt(s[:dot], 10, 64)
	if err != nil {
		return dst, err
	}
	fp, err := strconv.ParseInt(s[dot+1:], 10, 64)
	if err != nil {
		return dst, err
	}
	pow := int64(1)
	for i := 0; i < c.Scale; i++ {
		pow *= 10
	}
	v := ip*pow + fp
	if neg {
		v = -v
	}
	return appendOrderedInt(dst, v), nil
}

// Decode implements compress.Codec.
func (c DecimalCodec) Decode(dst, enc []byte) ([]byte, error) {
	v, n, err := decodeOrderedInt(enc)
	if err != nil {
		return dst, err
	}
	if n != len(enc) {
		return dst, fmt.Errorf("numeric: %d trailing bytes in decimal", len(enc)-n)
	}
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	pow := int64(1)
	for i := 0; i < c.Scale; i++ {
		pow *= 10
	}
	dst = strconv.AppendInt(dst, v/pow, 10)
	dst = append(dst, '.')
	frac := strconv.FormatInt(v%pow, 10)
	for i := len(frac); i < c.Scale; i++ {
		dst = append(dst, '0')
	}
	return append(dst, frac...), nil
}

// AppendModel implements compress.Codec.
func (c DecimalCodec) AppendModel(dst []byte) []byte {
	return compress.AppendUvarint(dst, uint64(c.Scale))
}
