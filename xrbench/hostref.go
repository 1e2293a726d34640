package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sync"
	"time"
)

// hostRefTrials is how many times hostRef runs its fixed work.
const hostRefTrials = 5

// hostRef times a fixed amount of CPU work that shares no code with the
// program under test — hashing, floating-point math and map inserts on
// every available CPU at once — and returns the median wall time of
// hostRefTrials runs in milliseconds. It tracks how fast the host is at
// the moment, so a run measured while a shared host was slow can be told
// apart from a slower program.
func hostRef() float64 {
	procs := runtime.GOMAXPROCS(0)
	times := make([]float64, 0, hostRefTrials)
	for t := 0; t < hostRefTrials; t++ {
		var wg sync.WaitGroup
		out := make([]float64, procs)
		start := time.Now()
		for p := range out {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				out[p] = refWork()
			}(p)
		}
		wg.Wait()
		times = append(times, ms(time.Since(start)))
		for _, v := range out {
			refSink += v
		}
	}
	return median(times)
}

// refSink keeps refWork's result live.
var refSink float64

// refWork is hostRef's unit of work, 9 to 20 ms on one core of a 2 GHz
// Xeon depending on how busy the host is.
func refWork() float64 {
	var buf [64]byte
	acc := 0.0
	m := make(map[uint64]float64, 1024)
	for i := 0; i < 60000; i++ {
		sum := sha256.Sum256(buf[:])
		copy(buf[:], sum[:])
		k := uint64(sum[0]) | uint64(sum[1])<<8
		x := float64(k) + 1
		acc += math.Sqrt(x) * math.Log(x)
		m[k%4096] += acc
	}
	for _, v := range m {
		acc += v
	}
	return acc
}
