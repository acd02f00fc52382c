// Command editbench is the repository's end-to-end benchmark. It stands up
// gdocs.Server on a durable store.Disk (SyncAlways group commit) behind
// loopback HTTP and drives the real gdocs.Client → mediator.Extension
// (pipelined) → HTTP → server → WAL stack with one of three workloads:
//
//   - typing: an open loop of keystroke bursts into private documents that
//     fit the server cache (the write path);
//   - open:   a closed loop of cold opens over a population larger than
//     the server cache (the read path, key derivation and Dec);
//   - coedit: two users editing the same documents, so their saves collide
//     and are repaired by catch-up plus OT merge.
//
// With --trace 0 it reports what an editor's user feels: time until the
// editor shows the result (local ack), time until the server has
// confirmed it (durable ack), throughput, bytes on the wire, memory and
// set-up time. With --trace 1 it runs one untraced and one traced window
// (half the time each) and reports a per-layer ledger: each layer's share
// of those numbers, what the runtime spent waiting, and the remainder no
// layer explains. Every timing is taken from outside the program, at
// public seams. End-to-end latency quantiles and ops/s are the best over
// five equal parts of the window (see subWindows); the "# dist" lines give
// the whole window's distribution, p99 included.
//
// Usage, from the repository root:
//
//	bash editbench/run.sh --workload typing --seed 1 --seconds 20 --trace 0
//
// Lines starting with "#" carry the environment header, every metric by
// name with its unit, and notes; the last line is one JSON object with
// correct, attempted, failed and metrics. A failed correctness check
// exits 1 after printing it; a run that cannot complete exits 2 without.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"privedit/internal/mediator"
	"privedit/internal/obs"
)

// config sizes one run. defaultConfig is the benchmark; the smoke test
// shrinks it.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	dir      string // scratch space for store directories
	// setup_s is the median of at least setups set-ups lasting at least
	// setupTime in all, so a light set-up is timed often enough to be
	// steady; traced runs set up once.
	setups    int
	setupTime time.Duration

	keystrokes      int   // per burst
	checkpointBytes int64 // store checkpoint threshold, 0 = the store's default
	fault           string

	typingDocs, typingChars int
	typingRate              float64 // bursts per second per document
	typingWarm              time.Duration

	openDocs, openChars int
	openCacheFrac       float64 // server cache budget ÷ population container bytes
	openWarm            int     // untimed opens before the window
	openProbes          int     // containers the traced run times public calls on

	coeditDocs, coeditChars int
	coeditWarm              time.Duration
}

func defaultConfig() config {
	return config{
		seed:       1,
		window:     20 * time.Second,
		dir:        ".bench_build",
		setups:     5,
		setupTime:  2 * time.Second,
		keystrokes: 12,

		typingDocs:  8,
		typingChars: 20000,
		typingRate:  10,
		typingWarm:  2 * time.Second,

		openDocs:      64,
		openChars:     50000,
		openCacheFrac: 0.25,
		openWarm:      64,
		openProbes:    32,

		coeditDocs:  4,
		coeditChars: 20000,
		coeditWarm:  time.Second,
	}
}

// workload is one traffic shape over the stack.
type workload interface {
	cacheBytes() int64
	populate(st *stack) error // the timed part of set-up
	warm(st *stack) error     // sessions and warm-up, untimed
	run(st *stack, w *window, d time.Duration)
	ledger(st *stack, w *window) // workload-specific layer samples, traced window
	stats() mediator.Stats
	verify(st *stack, windows []*window) []string
	warmup() string // what warm() does, for the header
	close() error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "typing":
		return newTyping(cfg), nil
	case "open":
		return newOpen(cfg)
	case "coedit":
		return newCoedit(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want typing, open or coedit)", cfg.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "typing, open or coedit")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", cfg.window.Seconds(), "length of the measured window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger")
	flag.StringVar(&cfg.dir, "dir", cfg.dir, "scratch directory for store files")
	flag.Parse()
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.traced = *traced == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "editbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "editbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up, measures and checks one workload, writing the "#" lines to
// out and returning the result.
func run(cfg config, out io.Writer) (res result, err error) {
	wl, err := newWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	obs.Enable() // the server binary's default: the program's counters are on
	dir := filepath.Join(cfg.dir, fmt.Sprintf("editbench-%d", os.Getpid()))
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	setups, setupTime := cfg.setups, cfg.setupTime
	if cfg.traced {
		setups, setupTime = 1, 0
	}

	var (
		st     *stack
		setupS []float64
		spent  time.Duration
	)
	for i := 0; i < setups || spent < setupTime; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		st, err = newStack(filepath.Join(dir, fmt.Sprint("setup-", i)), wl.cacheBytes(), cfg.checkpointBytes, cfg.fault)
		if err != nil {
			return result{}, err
		}
		if err := wl.populate(st); err != nil {
			return result{}, errors.Join(err, st.close())
		}
		took := time.Since(start)
		spent += took
		setupS = append(setupS, took.Seconds())
	}
	defer func() { err = errors.Join(err, wl.close(), st.close()) }()
	writeHeader(out, cfg, wl, dir, len(setupS))
	if err := wl.warm(st); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	// A traced run splits its time between an untraced and a traced window,
	// so it takes as long as an untraced one.
	span := cfg.window
	if cfg.traced {
		span /= 2
	}
	windows := []*window{measure(st, wl, span, false)}
	if cfg.traced {
		traced := measure(st, wl, span, true)
		wl.ledger(st, traced)
		windows = append(windows, traced)
	}
	failures := wl.verify(st, windows)
	for _, f := range failures {
		fmt.Fprintln(out, "# FAILED check:", f)
	}

	for _, w := range windows {
		res.Attempted += w.ops
		res.Failed += w.failed
	}
	res.Failed += len(failures)
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "# failed_ops_frac = %.6f (%d failed of %d ops, %d failed checks)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed-len(failures), res.Attempted, len(failures))

	for _, w := range windows {
		writeDist(out, "local_ack_ms", latencies(w.samples, false))
		writeDist(out, "durable_ack_ms", latencies(w.samples, true))
	}
	if cfg.traced {
		res.Metrics = perLayer(cfg.workload, windows[0], windows[1], out)
	} else {
		res.Metrics = endToEnd(windows[0], setupS)
	}
	writeMetrics(out, res.Metrics)
	return res, nil
}

// endToEndUnits is every end-to-end metric with its unit; BENCHMARK.json
// lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":                   "s",
	"local_ack_p50_ms":          "ms",
	"local_ack_p90_ms":          "ms",
	"durable_ack_p50_ms":        "ms",
	"durable_ack_p90_ms":        "ms",
	"ops_per_s":                 "1/s",
	"wire_bytes_per_plain_byte": "B/B",
	"peak_heap_mb":              "MiB",
}

func endToEnd(w *window, setupS []float64) map[string]metric {
	v := map[string]float64{
		"setup_s":      median(setupS),
		"peak_heap_mb": w.peakHeap,
	}
	v["local_ack_p50_ms"] = w.quantile(false, 0.50)
	v["local_ack_p90_ms"] = w.quantile(false, 0.90)
	v["durable_ack_p50_ms"] = w.quantile(true, 0.50)
	v["durable_ack_p90_ms"] = w.quantile(true, 0.90)
	v["ops_per_s"] = w.opsPerSecond()
	v["wire_bytes_per_plain_byte"], _ = ratio(w.wire, w.plain)
	m := make(map[string]metric, len(v))
	for name, x := range v {
		m[name] = metric{Value: x, Unit: endToEndUnits[name]}
	}
	return m
}

// writeDist prints a latency distribution's sample count and quantiles.
func writeDist(out io.Writer, name string, xs []float64) {
	fmt.Fprintf(out, "# dist %-15s n=%d", name, len(xs))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		v, _ := pct(xs, q)
		fmt.Fprintf(out, " p%g=%.3f", q*100, v)
	}
	fmt.Fprintln(out)
}

func writeMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# metric %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// writeHeader records what the numbers depend on.
func writeHeader(out io.Writer, cfg config, wl workload, dir string, setups int) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	h := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"window_s":       cfg.window.Seconds(),
		"traced":         cfg.traced,
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu_model":      cpuModel(),
		"store_fs":       fsType(dir),
		"flush_policy":   "SyncAlways",
		"gogc":           gogc,
		"setups_timed":   setups,
		"warmup":         wl.warmup(),
		"load_conns_max": runtime.NumCPU(),
		"window_parts":   subWindows,
	}
	line, _ := json.Marshal(h) // map of plain values: cannot fail
	fmt.Fprintln(out, "# env", string(line))
}

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

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch magic := uint64(s.Type); magic {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}
