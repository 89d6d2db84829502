package alm

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"xquec/internal/compress"
)

// TestLoadModelBuildsOnFirstUse: a loaded codec proves its model and
// builds nothing until it encodes or decodes; what a repository asks of a
// model at open, in Stats and in SaveFile never builds it.
func TestLoadModelBuildsOnFirstUse(t *testing.T) {
	trained := train(t, proseSample)
	model := trained.AppendModel(nil)
	for _, first := range []string{"decode", "encode"} {
		c, err := loadModel(model)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, _ = c.Name(), c.Props(), c.DecodeCost(), c.ModelSize()
		if got := c.AppendModel(nil); !bytes.Equal(got, model) || c.ModelSize() != len(model) {
			t.Fatalf("loaded model %x (size %d), trained %x", got, c.ModelSize(), model)
		}
		if c.n != 0 || c.loOff != nil {
			t.Fatalf("loaded codec built its index before first use")
		}
		v := proseSample[0]
		enc, _ := trained.Encode(nil, v)
		if first == "decode" {
			if got, err := c.Decode(nil, enc); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("first decode: %q, %v", got, err)
			}
		} else if got, err := c.Encode(nil, v); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("first encode: %x, %v; trained %x", got, err, enc)
		}
		if c.n != trained.n || c.codeWidth != trained.codeWidth {
			t.Fatalf("after first %s: %d intervals width %d, trained %d width %d", first, c.n, c.codeWidth, trained.n, trained.codeWidth)
		}
	}
}

// TestLoadModelCanonicalizes: a model front-coded on shorter prefixes
// than the tokens share, or with padded varints, loads as the same codec
// and writes the bytes the trained codec writes — no longer than it read.
func TestLoadModelCanonicalizes(t *testing.T) {
	toks := [][]byte{[]byte("ab"), []byte("abc"), []byte("abd"), []byte("b" + strings.Repeat("x", 200))}
	trained, err := fromTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	want := trained.AppendModel(nil)
	short := compress.AppendUvarint(nil, uint64(len(toks)))
	for _, tok := range toks {
		short = appendToken(short, tok, 0) // no prefix shared
	}
	padded := append([]byte{0x84, 0x00}, want[1:]...) // the count 4 in two bytes
	for name, model := range map[string][]byte{"canonical": want, "short prefixes": short, "padded varint": padded} {
		c, err := loadModel(model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := c.AppendModel(nil)
		if !bytes.Equal(got, want) || c.ModelSize() != len(want) || len(got) > len(model) {
			t.Fatalf("%s: %x loads as %x (size %d), want %x", name, model, got, c.ModelSize(), want)
		}
		for _, v := range [][]byte{[]byte("abcd"), []byte("b" + strings.Repeat("x", 300))} {
			e1, _ := trained.Encode(nil, v)
			e2, err := c.Encode(nil, v)
			if err != nil || !bytes.Equal(e1, e2) {
				t.Fatalf("%s: encodes %q as %x, trained %x", name, v, e2, e1)
			}
		}
	}
}

// TestLoadModelLargeBuildsAtOpen: past maxLazyTokens a build can fail, so
// it happens in loadModel — a file whose model overflows the code space is
// refused at open, never at a query's first decode.
func TestLoadModelLargeBuildsAtOpen(t *testing.T) {
	// Token [a, b, 0] opens one interval and leaves a gap after it, so n
	// such tokens cut 256 + 2n intervals.
	model := func(n int) []byte {
		m := compress.AppendUvarint(nil, uint64(n))
		var prev []byte
		for i := 0; i < n; i++ {
			tok := []byte{byte(i >> 8), byte(i), 0}
			m = appendToken(m, tok, commonPrefixLen(prev, tok))
			prev = tok
		}
		return m
	}
	c, err := loadModel(model(maxLazyTokens + 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.n != 256+2*(maxLazyTokens+1) {
		t.Fatalf("%d tokens: %d intervals after load, want them built", maxLazyTokens+1, c.n)
	}
	if _, err := loadModel(model(32641)); err == nil || !strings.Contains(err.Error(), "code space") {
		t.Fatalf("model of 65 538 intervals: err = %v, want refused at load", err)
	}
	if c, err = loadModel(model(maxLazyTokens)); err != nil {
		t.Fatal(err)
	}
	if c.n != 0 {
		t.Fatalf("%d tokens: %d intervals after load, want them left to first use", maxLazyTokens, c.n)
	}
}

// TestLoadModelFirstUseRace: goroutines that first touch one freshly
// loaded codec at once all see one built index (run under -race).
func TestLoadModelFirstUseRace(t *testing.T) {
	trained := train(t, proseSample)
	model := trained.AppendModel(nil)
	v := proseSample[1]
	enc, _ := trained.Encode(nil, v)
	for round := 0; round < 20; round++ {
		c, err := loadModel(model)
		if err != nil {
			t.Fatal(err)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				switch g % 3 {
				case 0:
					if got, err := c.Decode(nil, enc); err != nil || !bytes.Equal(got, v) {
						errs <- "decode"
					}
				case 1:
					if got, err := c.Encode(nil, v); err != nil || !bytes.Equal(got, enc) {
						errs <- "encode"
					}
				default:
					if got := c.AppendModel(nil); !bytes.Equal(got, model) {
						errs <- "append model"
					}
				}
			}()
		}
		start.Done()
		done.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: concurrent first %s disagreed with the trained codec", round, e)
		}
	}
}
