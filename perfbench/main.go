// Command perfbench is the repository's benchmark. Each run prepares one
// workload from a seed, checks every op against a serial reference, and
// prints its metrics by name with their units; the last line of standard
// output is one JSON object with the result. Run it from the repository root
// through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload replay-db2 --seed 7 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// makes the layer-split run, which calls each layer's public function alone
// on the same input and prints the per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// setupRounds is how many times an untraced run prepares its workload;
	// setup_s is the median.
	setupRounds = 3
	// minLayerRounds is the fewest rounds a traced run measures.
	minLayerRounds = 3
	// buildDir, under the directory the benchmark runs from, holds its
	// generated trace files; run.sh builds the binary there too.
	buildDir = ".bench_build/perfbench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fl.Int64("seed", 1, "seed the workload's input is generated from (0 means 1)")
	seconds := fl.Int("seconds", 10, "how long the timed ops (or traced rounds) run")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the layer-split run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seed == 0 {
		*seed = 1 // the generators treat seed 0 as 1
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, err := bench(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1, work, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench prepares the workload, measures it and returns the result; the
// run's identity and every metric are printed to out as they are known.
func bench(def workloadDef, seed int64, d time.Duration, traced bool, dir string, out io.Writer) (result, error) {
	var res result
	start := time.Now()
	rounds := setupRounds
	if traced {
		rounds = 1 // a traced run reports no setup_s
	}
	var inst *instance
	var setups []float64
	warm := loopResult{}
	for i := 0; i < rounds; i++ {
		inst = nil // the previous round's inputs are garbage before the next is built
		t0 := time.Now()
		var err error
		if inst, err = def.prepare(seed, dir, def.sizes); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		countOp(&warm, inst.op()) // the warm-up op
		setups = append(setups, time.Since(t0).Seconds())
	}
	printIdentity(out, def, seed, traced, d, inst)
	fmt.Fprintf(out, "setup: %d rounds in %.3f s (%s s each); set-up peak RSS %.1f MB\n",
		rounds, time.Since(start).Seconds(), joinFloats(setups), peakRSSMB())

	var values map[string]float64
	var defs []metricDef
	var loop loopResult
	if traced {
		lr, err := newLayerRun(inst, dir)
		if err != nil {
			return res, fmt.Errorf("traced set-up: %w", err)
		}
		if values, err = tracedRun(lr, d, minLayerRounds); err != nil {
			return res, fmt.Errorf("traced run: %w", err)
		}
		loop = lr.ops
		defs = perLayer
	} else {
		// The timed ops read only the trace files; like a user's process,
		// this one holds no decoded trace while they run.
		for _, in := range inst.inputs {
			in.tr = nil
		}
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(out, "peak_rss_mb includes the set-up: %v\n", err)
		}
		loop = runLoop(inst.op, d, tailBeyond+1)
		p, tail, err := tailPercentile(loop.walls)
		if err != nil {
			return res, err
		}
		values = map[string]float64{
			"events_per_s":          float64(inst.events) / median(loop.walls),
			"op_s_tail":             tail,
			"cpu_s_per_mevent":      median(loop.cpus) / (float64(inst.events) / 1e6),
			"alloc_bytes_per_event": median(loop.allocs) / float64(inst.events),
			"peak_rss_mb":           peakRSSMB(),
			"setup_s":               median(setups),
		}
		fmt.Fprintf(out, "timed ops: %d in %.3f s; median op %.4f s; op_s_tail is p%d of the %d timed ops\n",
			loop.attempted, sum(loop.walls), median(loop.walls), p, loop.attempted)
		fmt.Fprintf(out, "op wall s: %s\nop cpu s:  %s\n", joinFloats(loop.walls), joinFloats(loop.cpus))
		defs = endToEnd
	}
	res.Attempted = loop.attempted + warm.attempted
	res.Failed = loop.failed + warm.failed
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "ops: attempted=%d failed=%d failed_op_frac=%g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, err := range []error{warm.firstErr, loop.firstErr} {
		if err != nil {
			fmt.Fprintf(out, "first failure: %v\n", err)
			break
		}
	}

	res.Metrics = map[string]metricValue{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s was not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "metric %-36s %14.6g %-10s %s\n", m.name, v, m.unit, m.note)
	}
	return res, nil
}

func joinFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// printIdentity prints what makes two runs comparable: the seed, the inputs
// with their event counts and hashes, the host and the source.
func printIdentity(out io.Writer, def workloadDef, seed int64, traced bool, d time.Duration, inst *instance) {
	trace := 0
	if traced {
		trace = 1
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", def.name, seed, d.Seconds(), trace)
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceHash("."))
	for _, in := range inst.inputs {
		fmt.Fprintf(out, "input: %s nodes=%d scale=%g repeat=%g seed=%d events=%d bytes=%d sha256=%s\n",
			in.spec.Name, in.cfg.Nodes, in.cfg.Scale, in.cfg.Repeat, in.cfg.Seed, in.events, in.bytes, in.sha256)
	}
	fmt.Fprintf(out, "op: %d input events per op\n", inst.events)
	fmt.Fprintf(out, "reference:\n%s\n", strings.TrimRight(inst.want, "\n"))
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// sourceHash is the SHA-256 over the Go sources and module files under root
// (path and content of each, in path order), skipping hidden directories.
// It identifies the code where no VCS revision is available.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
