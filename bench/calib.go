package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on shares its cores with other machines'
// work, and its speed drifts by tens of percent within a minute, for CPU
// time as much as wall time. The benchmark therefore times a fixed
// reference kernel, independent of the program, next to its ops and
// scales every reported time to the speed at which the kernel takes
// refNominalMs. Raw wall times stay in the extras.

// refNominalMs is the reference kernel's median on the recorded host (2
// cores, Go 1.24) when idle; scaled times are in "ms on that host".
const refNominalMs = 27.5

// calibN sizes the kernel to about refNominalMs.
const calibN = 200_000

// calib is the reference kernel: map inserts and lookups, SHA-256 and an
// in-place sort, the mix the protocol's hot paths spend their time on. It
// allocates nothing after construction, so the program's heap and GC do
// not change its work.
type calib struct {
	m  map[uint32]uint32
	xs []uint32
}

func newCalib() *calib {
	return &calib{m: make(map[uint32]uint32, calibN), xs: make([]uint32, calibN)}
}

var calibSink uint32

// speedAround is the host's speed relative to the recorded host during a
// stretch of work, from the kernel samples taken just before and just
// after it and after the next stretch: a time measured then, times the
// speed, is the time there. It takes the fastest of the three, since a
// 30 ms sample is often slowed by a burst of outside work that the
// stretch, lasting hundreds of ms, mostly averages out. On same-seed
// pairs of dense-paper runs this cut the standard deviation of an op's
// time ratio from 12 % (the sample after the op alone) to 8.5 %. A
// missing neighbour is 0 and ignored.
func speedAround(before, after, next float64) float64 {
	fastest := after
	for _, v := range []float64{before, next} {
		if v > 0 {
			fastest = min(fastest, v)
		}
	}
	return refNominalMs / fastest
}

// run times one pass of the kernel, in ms. It first collects the garbage
// the preceding op left, untimed, so that no GC cycle of the program runs
// next to the kernel: a change that adds garbage must not slow the kernel
// and so shrink its own scaled times.
func (c *calib) run() float64 {
	runtime.GC()
	start := time.Now()
	clear(c.m)
	var buf [64]byte
	var acc uint32
	for i := range uint32(calibN) {
		k := i * 2654435761
		c.m[k] = i
		binary.LittleEndian.PutUint32(buf[i%60:], k)
		if i%4 == 0 {
			s := sha256.Sum256(buf[:])
			acc += binary.LittleEndian.Uint32(s[:])
		}
		c.xs[i] = k ^ acc
	}
	slices.Sort(c.xs)
	for _, x := range c.xs[:1000] {
		acc += c.m[x]
	}
	calibSink = acc
	return ms(time.Since(start))
}
