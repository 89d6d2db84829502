package main

import (
	"bytes"
	"compress/flate"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"xquec/bench"
)

// reference is the benchmark's own yardstick for the speed of the host.
// The reference host's speed wanders by tens of per cent, for seconds or
// for minutes, xquecd's CPU time per request along with it (README.md,
// Noise), so a run times a fixed kernel before and after every set-up
// and every round and reports its timings on a clock that slows down
// when the kernel does. The kernel is code of the Go distribution on a
// fixed input and never runs while xquecd is busy, so a change to the
// program does not move it. Its four parts are what the program's time
// goes to: dependent loads from memory, a table-driven bit decoder,
// an allocating tokenizer, and loopback socket round trips.
type reference struct {
	chase    []uint32
	deflated []byte
	doc      []byte
	conn     net.Conn
	listener net.Listener
	// samples[k] is the host's speed at the k-th call of sample, as a
	// share of the reference host's usual speed.
	samples []float64
}

func newReference() (*reference, error) {
	rng := rand.New(rand.NewSource(1))
	ref := &reference{chase: make([]uint32, 8<<20)}
	// One cycle through all of a 32 MB array, in a random order.
	perm := rng.Perm(len(ref.chase))
	for i, p := range perm {
		ref.chase[p] = uint32(perm[(i+1)%len(perm)])
	}
	var doc bytes.Buffer
	doc.WriteString("<ref>")
	for i := 0; doc.Len() < 256<<10; i++ {
		fmt.Fprintf(&doc, `<item id="item%d" rank="%d"><name>`, i, rng.Intn(1000))
		for w := 2 + rng.Intn(6); w > 0; w-- {
			fmt.Fprintf(&doc, "w%d ", rng.Intn(3000))
		}
		fmt.Fprintf(&doc, "</name><price>%d.%02d</price></item>\n", rng.Intn(500), rng.Intn(100))
	}
	doc.WriteString("</ref>")
	ref.doc = doc.Bytes()
	var z bytes.Buffer
	zw, err := flate.NewWriter(&z, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	zw.Write(ref.doc)
	if err := zw.Close(); err != nil {
		return nil, err
	}
	ref.deflated = z.Bytes()

	// An echo server on a loopback socket, in this process.
	if ref.listener, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() {
		c, err := ref.listener.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, bench.RefPingBytes)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return // close closed the other end
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if ref.conn, err = net.Dial("tcp", ref.listener.Addr().String()); err != nil {
		ref.listener.Close()
		return nil, err
	}
	return ref, nil
}

// close ends the echo goroutine: its read fails once the dialing end is
// closed.
func (ref *reference) close() {
	ref.conn.Close()
	ref.listener.Close()
}

// sample times the kernel once and records the host's speed.
func (ref *reference) sample() error {
	runtime.GC() // the tokenizer allocates; start every sample from a collected heap
	start := time.Now()
	j := uint32(0)
	for i := 0; i < bench.RefChaseSteps; i++ {
		j = ref.chase[j]
	}
	if j >= uint32(len(ref.chase)) {
		return fmt.Errorf("reference: chase left the array")
	}
	for i := 0; i < bench.RefInflates; i++ {
		if _, err := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(ref.deflated))); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	for i := 0; i < bench.RefTokenizes; i++ {
		dec := xml.NewDecoder(bytes.NewReader(ref.doc))
		for {
			if _, err := dec.RawToken(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
		}
	}
	buf := make([]byte, bench.RefPingBytes)
	for i := 0; i < bench.RefPings; i++ {
		if _, err := ref.conn.Write(buf); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		if _, err := io.ReadFull(ref.conn, buf); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	ref.samples = append(ref.samples, bench.RefKernelSeconds/time.Since(start).Seconds())
	return nil
}

// speed is the host's speed over the phase between the last two
// samples: their mean.
func (ref *reference) speed() float64 {
	n := len(ref.samples)
	return (ref.samples[n-2] + ref.samples[n-1]) / 2
}
