package main

import "time"

// The host-speed reference. This host's neighbours slow everything that
// hands work between goroutines or misses its caches by 10-60 % for minutes
// to hours at a time (no steal time shows, and a pure arithmetic loop moves by
// 4 % meanwhile), so seconds measured an hour apart cannot be compared. The
// parent therefore times a fixed piece of work of its own before and after
// every child: two goroutines passing a freshly allocated buffer back and
// forth over unbuffered channels, which is how the simulator's kernel runs
// its procs. It calls nothing in the repository, so no change to the program
// can move it. README.md (host stanza) has the measurements: per unit of log
// reference time, log wall_s of single children rose by 0.81-1.03 on the four
// workloads, and over sets of ten runs the spread of wall_s fell from 6-21 %
// to 3-13 % and the drift of its median between sets from 7-18 % to 3 % (12 %
// on jacobi, which loses more to cache traffic than the reference does).
const (
	refHops = 600_000
	// refNominalS is the reference's time on this host in a quiet hour.
	// Times are reported as seconds at that speed: measured seconds times
	// refNominalS over the reference's time next to the measurement.
	refNominalS = 0.30
)

// hostRef runs the reference work once and returns its host seconds.
func hostRef() float64 {
	ping, pong := make(chan []byte), make(chan []byte)
	go func() {
		for buf := range ping {
			pong <- append(make([]byte, 0, 64), buf[:8]...)
		}
	}()
	buf := make([]byte, 64)
	t0 := time.Now()
	for i := 0; i < refHops; i++ {
		ping <- buf
		buf = <-pong
		buf = buf[:cap(buf)]
	}
	d := time.Since(t0)
	close(ping)
	return d.Seconds()
}
