package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
)

// runsFile is the layout of a -runs output file.
type runsFile struct {
	Host host        `json:"host"`
	Runs []runRecord `json:"runs"`
}

// host records what a run's numbers depend on besides the code.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

type runRecord struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace,omitempty"`
	Result   runResult `json:"result"`
}

// repeat runs every workload of sel n times, each in a fresh child process
// of this program, with seeds o.seed, o.seed+1, ... Odd repeats run the
// workloads in reverse order, so no workload always follows the same one.
// It prints each metric's median and quartiles and appends the runs to
// outPath, if set.
func repeat(ctx context.Context, sel []*benchWorkload, n int, o runOptions, outPath string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var recs []runRecord
	for r := 0; r < n; r++ {
		order := slices.Clone(sel)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			seed := o.seed + uint64(r)
			args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(o.dur.Seconds(), 'g', -1, 64), "--trace", trace,
				"-scale", string(o.scale), "-trace-dir", o.traceDir}
			res, err := runChild(ctx, exe, args, stderr)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			fmt.Fprintf(stderr, "run %d/%d %s seed %d: %d ops, %d failed\n", r+1, n, w.name, seed, res.Attempted, res.Failed)
			recs = append(recs, runRecord{Workload: w.name, Seed: seed, Trace: o.trace, Result: res})
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%-14s %-30s %12s %12s %12s %8s %3s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "n", "unit")
	for _, w := range sel {
		for _, d := range defs {
			xs := valuesOf(recs, w.name, d.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "%-14s %-30s %12.6g %12.6g %12.6g %7.2f%% %3d %s\n",
				w.name, d.Name, median(xs), q1, q3, spread(xs)*100, len(xs), d.Unit)
		}
	}
	if outPath == "" {
		return nil
	}
	f := runsFile{Host: thisHost()}
	if raw, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", outPath, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	return writeJSON(outPath, f)
}

// runChild runs one workload in a child process and returns the summary
// from its last line of output.
func runChild(ctx context.Context, exe string, args []string, stderr io.Writer) (runResult, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		if line := sc.Text(); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no summary line: %w", err))
	}
	if runErr != nil {
		return res, fmt.Errorf("%w (correct %v, %d of %d ops failed)", runErr, res.Correct, res.Failed, res.Attempted)
	}
	return res, nil
}

func valuesOf(recs []runRecord, workload, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// minPairs and winShare are the rule for claiming a gain: at least ten
// parent/change pairs, of which the change wins nine in ten.
const (
	minPairs = 10
	winShare = 0.9
)

// compareFiles judges the change's runs against the parent's, metric by
// metric and workload by workload, and prints one verdict per pair:
//
//   - improved: the change wins at least nine in ten of at least ten
//     pairs (ties count for neither side) and the medians differ by more
//     than the parent's interquartile distance; or the parent's spread is
//     wider than the bound and every change run beats every parent run;
//   - unresolved: the parent's spread is wider than the metric's bound,
//     so a move within it cannot be told from noise;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
//
// No gain counts when the change fails more ops than the parent. It
// reports whether anything regressed.
func compareFiles(bfPath, parentPath, changePath string, out io.Writer) (bool, error) {
	bf, err := readBenchmarkFile(bfPath)
	if err != nil {
		return false, err
	}
	var parent, change runsFile
	for _, p := range []struct {
		path string
		f    *runsFile
	}{{parentPath, &parent}, {changePath, &change}} {
		raw, err := os.ReadFile(p.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, p.f); err != nil {
			return false, fmt.Errorf("%s: %w", p.path, err)
		}
	}
	failed := func(f runsFile) (n int) {
		for _, r := range f.Runs {
			n += r.Result.Failed
		}
		return n
	}
	gainsCount := failed(change) <= failed(parent)
	if !gainsCount {
		fmt.Fprintf(out, "the change failed %d ops, the parent %d: no gain counts\n", failed(change), failed(parent))
	}
	regressed := false
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %8s %8s %6s %s\n", "workload", "metric", "parent", "change", "delta", "spread", "wins", "verdict")
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			p, c := valuesOf(parent.Runs, w.Name, d.Name), valuesOf(change.Runs, w.Name, d.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "%-14s %-16s missing runs\n", w.Name, d.Name)
				continue
			}
			v := judge(p, c, d)
			if v.verdict == "improved" && !gainsCount {
				v.verdict = "unchanged"
			}
			regressed = regressed || v.verdict == "regressed"
			fmt.Fprintf(out, "%-14s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %2d/%-3d %s\n",
				w.Name, d.Name, median(p), median(c), v.worse*-100, spread(p)*100, v.wins, v.pairs, v.verdict)
		}
	}
	return regressed, nil
}

type verdict struct {
	// worse is how much worse the change's median is, as a share of the
	// parent's; negative when it is better.
	worse       float64
	wins, pairs int
	verdict     string
}

func judge(p, c []float64, d metricDef) verdict {
	better := func(a, b float64) bool { // a reads better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	mp, mc := median(p), median(c)
	v := verdict{worse: (mc - mp) / mp, pairs: min(len(p), len(c))}
	if d.Better == "higher" {
		v.worse = -v.worse
	}
	for i := 0; i < v.pairs; i++ {
		if better(c[i], p[i]) {
			v.wins++
		}
	}
	q1, q3 := quartiles(p)
	// Every change run beats every parent run when the change's worst
	// beats the parent's best.
	worstC, bestP := slices.Min(c), slices.Max(p)
	if d.Better != "higher" {
		worstC, bestP = slices.Max(c), slices.Min(p)
	}
	allBetter := better(worstC, bestP)
	switch {
	case spread(p) > d.Bound && allBetter:
		v.verdict = "improved"
	case spread(p) > d.Bound:
		v.verdict = "unresolved"
	case v.worse > d.Bound:
		v.verdict = "regressed"
	case v.pairs >= minPairs && float64(v.wins) >= winShare*float64(v.pairs) && better(mc, mp) && math.Abs(mc-mp) > q3-q1:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}
