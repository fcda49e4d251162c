package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference host is shared, and its speed drifts by up to 2x over
// minutes while the process's own CPU time shows no steal. A fixed job
// timed at short intervals through a run tracks that drift: over runs of
// 20 to 25 seconds, the simulator's time divided by the time of
// loopback HTTP echo requests varied by about 5% (interquartile range
// over median), against about 30% for the simulator's time alone. So a
// run interleaves its timed phase with such probes and reports its times
// at the reference host speed: the measured times divided by the run's
// host factor, the median probe time over probeRef.
//
// The probe runs in a child process, so it shares no heap or garbage
// collector with the program being measured, and no change to the
// repository can change it.

// probeRef is the median time of one probe slice on the reference host.
const probeRef = 8 * time.Millisecond

const (
	// probeRounds sub-probes make a probe slice, which reads the fastest
	// of them: interference, such as the parent's garbage collector
	// finishing a cycle on the idle CPUs, only ever slows a sub-probe.
	probeRounds = 5
	// probeRequests is how many requests each of the two probe clients
	// sends in a sub-probe.
	probeRequests = 150
)

// prober is the child process that times probe slices.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startProber starts this program as a probe child.
func startProber(ctx context.Context) (*prober, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// factor times one probe slice and returns the host factor it reads: its
// time over probeRef, above 1 when the host is slower than the reference.
func (p *prober) factor() (float64, error) {
	if _, err := io.WriteString(p.in, "probe\n"); err != nil {
		return 0, err
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("probe child: %v", p.out.Err())
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(p.out.Text()), 10, 64)
	return float64(ns) / float64(probeRef), err
}

// close ends the child and waits for it.
func (p *prober) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// serveProbes is the child's side: for each line it reads, it times a
// probe slice and writes its nanoseconds.
func serveProbes(in io.Reader, out io.Writer) error {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(b)
	}))
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	body := `{"workload":"omnetpp","machine":"skylake","predictor":"fvp","warmup_insts":2000,"measure_insts":5000}`
	client := func() error {
		for i := 0; i < probeRequests; i++ {
			resp, err := hc.Post(srv.URL, "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	for sc := bufio.NewScanner(in); sc.Scan(); {
		var rounds []time.Duration
		for r := 0; r < probeRounds; r++ {
			errs := make([]error, 2)
			t0 := time.Now()
			var wg sync.WaitGroup
			for c := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[c] = client()
				}()
			}
			wg.Wait()
			rounds = append(rounds, time.Since(t0))
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(out, slices.Min(rounds).Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}
