package main

import (
	"compress/flate"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"time"
)

// The host reference is a fixed workload, DEFLATE compression of refText,
// that shares no code with the miners. The timed phase times it once per
// sweep and divides every end-to-end time by the run's host factor, the
// reference's median time over the run divided by refNominal. On a
// shared host the speed of a whole run drifts by tens of percent, every
// cell with it, and the reference drifts along; README.md gives the
// spreads with and without the division.
//
// refNominal is the reference's median time, in seconds, over the forty
// runs the bounds were set from (README.md, host notes), so that on that
// host scaled times read close to wall times.
const refNominal = 0.0272

// refText is the reference's input: 256 KiB of FIMI-like rows drawn from
// a fixed seed.
var refText = func() []byte {
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for len(b) < 256<<10 {
		for j, n := 0, 20+rng.Intn(30); j < n; j++ {
			b = strconv.AppendInt(b, int64(rng.Intn(200)*rng.Intn(5)), 10)
			b = append(b, ' ')
		}
		b = append(b, '\n')
	}
	return b
}()

// refWriter is reused so a timing allocates nothing and never waits for
// the collector. NewWriter fails only for an invalid level.
var refWriter, _ = flate.NewWriter(io.Discard, flate.DefaultCompression)

// timeReference runs the reference once, after a GC, and returns its
// wall time in seconds.
func timeReference() float64 {
	runtime.GC()
	start := time.Now()
	refWriter.Reset(io.Discard)
	refWriter.Write(refText)
	refWriter.Close()
	return time.Since(start).Seconds()
}
