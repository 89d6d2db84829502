package numeric

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"testing/quick"
)

func TestIntRoundTripAndOrder(t *testing.T) {
	c := IntCodec{}
	values := []string{"-9223372036854775808", "-100", "-1", "0", "1", "42", "999999", "9223372036854775807"}
	var prev []byte
	for _, v := range values {
		enc, err := c.Encode(nil, []byte(v))
		if err != nil {
			t.Fatalf("Encode(%s): %v", v, err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || string(dec) != v {
			t.Fatalf("round trip %s -> %s (%v)", v, dec, err)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("order violated at %s", v)
		}
		prev = enc
	}
}

func TestQuickIntOrder(t *testing.T) {
	c := IntCodec{}
	f := func(a, b int64) bool {
		ea, _ := c.Encode(nil, []byte(strconv.FormatInt(a, 10)))
		eb, _ := c.Encode(nil, []byte(strconv.FormatInt(b, 10)))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntTrainerRejectsNonCanonical(t *testing.T) {
	_, err := IntTrainer{}.Train([][]byte{[]byte("007")})
	if !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("leading zeros accepted: %v", err)
	}
	_, err = IntTrainer{}.Train([][]byte{[]byte("12.5")})
	if !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("float accepted by int trainer: %v", err)
	}
	if _, err := (IntTrainer{}).Train([][]byte{[]byte("12"), []byte("-3")}); err != nil {
		t.Fatalf("canonical ints rejected: %v", err)
	}
}

func TestFloatRoundTripAndOrder(t *testing.T) {
	c := FloatCodec{}
	values := []string{"-1000.5", "-1", "-0.25", "0", "0.5", "1", "19.99", "1000000"}
	var prev []byte
	for _, v := range values {
		enc, err := c.Encode(nil, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || string(dec) != v {
			t.Fatalf("round trip %s -> %s", v, dec)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("order violated at %s", v)
		}
		prev = enc
	}
}

func TestQuickFloatOrder(t *testing.T) {
	c := FloatCodec{}
	f := func(a, b float64) bool {
		sa := strconv.FormatFloat(a, 'f', -1, 64)
		sb := strconv.FormatFloat(b, 'f', -1, 64)
		ea, err1 := c.Encode(nil, []byte(sa))
		eb, err2 := c.Encode(nil, []byte(sb))
		if err1 != nil || err2 != nil {
			return false
		}
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatTrainerRejectsTrailingZeros(t *testing.T) {
	_, err := FloatTrainer{}.Train([][]byte{[]byte("1.50")})
	if !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("trailing-zero decimal accepted: %v", err)
	}
	if _, err := (FloatTrainer{}).Train([][]byte{[]byte("19.99"), []byte("-0.5")}); err != nil {
		t.Fatalf("canonical floats rejected: %v", err)
	}
}

func TestDateRoundTripAndOrder(t *testing.T) {
	c := DateCodec{}
	values := []string{"1969-07-20", "1970-01-01", "1998-12-31", "1999-01-01", "2004-03-14", "2038-01-19"}
	var prev []byte
	for _, v := range values {
		enc, err := c.Encode(nil, []byte(v))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil || string(dec) != v {
			t.Fatalf("round trip %s -> %s", v, dec)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("order violated at %s", v)
		}
		prev = enc
	}
}

func TestDateTrainer(t *testing.T) {
	if _, err := (DateTrainer{}).Train([][]byte{[]byte("2001-02-30")}); !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("invalid date accepted: %v", err)
	}
	if _, err := (DateTrainer{}).Train([][]byte{[]byte("not a date")}); !errors.Is(err, ErrNotRepresentable) {
		t.Fatalf("garbage accepted: %v", err)
	}
	if _, err := (DateTrainer{}).Train([][]byte{[]byte("2001-12-25")}); err != nil {
		t.Fatalf("valid date rejected: %v", err)
	}
}

func TestDecodeRejectsWrongWidth(t *testing.T) {
	if _, err := (IntCodec{}).Decode(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("IntCodec accepted 3 bytes")
	}
	if _, err := (FloatCodec{}).Decode(nil, []byte{1}); err == nil {
		t.Fatal("FloatCodec accepted 1 byte")
	}
	if _, err := (DateCodec{}).Decode(nil, make([]byte, 8)); err == nil {
		t.Fatal("DateCodec accepted 8 bytes")
	}
}

func TestProps(t *testing.T) {
	for _, name := range []string{"int", "float", "date"} {
		var p = map[string]bool{}
		switch name {
		case "int":
			pr := IntCodec{}.Props()
			p["eq"], p["op"] = pr.Eq, pr.OrderPreserving
		case "float":
			pr := FloatCodec{}.Props()
			p["eq"], p["op"] = pr.Eq, pr.OrderPreserving
		case "date":
			pr := DateCodec{}.Props()
			p["eq"], p["op"] = pr.Eq, pr.OrderPreserving
		}
		if !p["eq"] || !p["op"] {
			t.Fatalf("%s codec must be fully order-preserving", name)
		}
	}
}
