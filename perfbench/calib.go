package main

import (
	"crypto/sha256"
	"time"
)

// calibSink keeps the calibration work observable to the compiler.
var calibSink uint64

// calibPasses sizes one calibration probe: about 0.2 s of CPU time on
// the host the benchmark was built on.
const calibPasses = 10

// calibProbe runs a fixed CPU workload on a locked OS thread and returns
// that thread's CPU time. The mix is hash-map traffic plus hashing a
// buffer. On the shared host the benchmark was built on, other tenants'
// memory traffic slowed this probe along with the simulator, so the
// workloads' operation times are reported in probes measured alongside
// them, which takes out most of that drift (README.md).
func calibProbe() time.Duration {
	d, _ := threadTime(func() error {
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		for p := 0; p < calibPasses; p++ {
			m := make(map[uint64]uint64, 1<<14)
			var x uint64 = 88172645463325252
			for i := 0; i < 1<<18; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := x & (1<<15 - 1)
				m[k] += x
				delete(m, k^1)
			}
			for i := 0; i < 4; i++ {
				sum := sha256.Sum256(buf)
				calibSink += uint64(sum[0])
			}
			calibSink += uint64(len(m))
		}
		return nil
	})
	return d
}

// calibrate is the median of three probes in milliseconds, taken before
// the workload starts: the host fingerprint's calib_ms. Results whose
// calib_ms differ much were taken on hosts of different speed.
func calibrate() float64 {
	runs := make([]time.Duration, 3)
	for i := range runs {
		runs[i] = calibProbe()
	}
	return ms(median(runs))
}
