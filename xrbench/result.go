package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples the value summarizes.
	N int `json:"n"`
	// Moves names the end-to-end metric a per-layer metric should move;
	// empty for end-to-end metrics.
	Moves string `json:"moves,omitempty"`
	// Idle marks a per-layer metric whose layer this workload does not
	// exercise, or does not expose to the benchmark; its value is 0.
	Idle bool `json:"idle,omitempty"`
	// Gated marks the metrics of the final JSON line: every end-to-end
	// metric in a plain run, every per-layer metric in a traced run.
	// The rest are printed for reading only.
	Gated bool `json:"gated"`
}

// result is one run's outcome.
type result struct {
	Env       envInfo  `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	// JobMS holds every timed job's wall time in completion order, per
	// job kind, for distribution analysis.
	JobMS map[string][]float64 `json:"job_ms"`
}

// add appends an end-to-end metric.
func (r *result) add(name string, v float64, unit string, n int, gated bool) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n, Gated: gated})
}

// addLayer appends a per-layer metric.
func (r *result) addLayer(name string, v float64, unit string, n int) {
	l := layerByName[name]
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n, Moves: l.moves, Gated: true})
}

// addIdle appends per-layer metrics of layers the workload does not
// exercise.
func (r *result) addIdle(names ...string) {
	for _, name := range names {
		l := layerByName[name]
		r.Metrics = append(r.Metrics, metric{Name: name, Unit: l.unit, Moves: l.moves, Idle: true, Gated: true})
	}
}

// lookup returns the named metric.
func (r *result) lookup(name string) metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// value returns the named metric's value (0 when absent).
func (r *result) value(name string) float64 { return r.lookup(name).Value }

// samples returns the named metric's sample count (0 when absent).
func (r *result) samples(name string) int { return r.lookup(name).N }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// write prints the human-readable report, stores the full record under
// cfg.outDir and prints the JSON result as the last line.
func (r *result) write(w io.Writer, cfg config) error {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced per-layer"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# xrbench %s run: workload=%s seed=%d seconds=%d\n", mode, cfg.workload, cfg.seed, cfg.seconds)
	fmt.Fprintf(&b, "# env: %s\n", r.Env)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, m := range r.Metrics {
		val := strconv.FormatFloat(m.Value, 'g', 6, 64)
		if m.Idle {
			val = "0 (not exercised on this workload)"
		}
		line := fmt.Sprintf("%-34s %s %s  n=%d", m.Name, val, m.Unit, m.N)
		if m.Moves != "" {
			line += "  moves: " + m.Moves
		}
		if !m.Gated {
			line += "  (not in JSON)"
		}
		b.WriteString(line + "\n")
	}
	fmt.Fprintf(&b, "# jobs attempted=%d failed=%d\n", r.Attempted, r.Failed)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range r.Metrics {
		if !m.Gated {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Seconds  int    `json:"seconds"`
		Trace    bool   `json:"trace"`
		*result
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, r}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(record, '\n'), 0o644); err != nil {
		return err
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// beyond counts the samples strictly above the nearest-rank p-quantile
// of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// minTail is how many samples must lie beyond a reported tail
// percentile.
const minTail = 10

// minJobsFor is the smallest sample count whose nearest-rank
// p-quantile has minTail samples beyond it.
func minJobsFor(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// sortedCopy returns the values in ascending order.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (nearest rank).
func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// midMean is the mean of the middle half of sorted: the values from its
// first to its third quartile (all of them when there are fewer than 4).
func midMean(sorted []float64) float64 {
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	if hi <= lo {
		return 0
	}
	return sum / float64(hi-lo)
}

// digest is the hex SHA-256 of a job's output bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// envInfo records the machine a result was measured on.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// OutFS is the filesystem type of the output directory, which also
	// holds the disk-cache replay store.
	OutFS string `json:"out_fs"`
}

func (e envInfo) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s out_fs=%s", e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.OutFS)
}

func machineEnv(cfg config) envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OutFS:      fsType(cfg.outDir),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
