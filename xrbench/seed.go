package main

// derive draws the seed of input stream from the workload seed through
// a SplitMix64 finalizer; the result is a non-negative 31-bit value, so
// every generated seed stays readable in job documents and reports.
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 33)
}
