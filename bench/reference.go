package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Reference speed.
//
// Each core of the reference host runs at one of two speeds, on its own, and
// flips between them every few seconds or minutes; /proc/stat shows no steal.
// At the slow level an arithmetic loop takes as long as before, a walk
// through 512 KiB of memory 1.2 times as long, a system call 1.25 times, and
// a 64-byte loopback TCP echo, like an invocation, 1.57 times (12.5 us
// against 8 us): what a neighbour on the same physical core would do. Raw
// times therefore spread by 20% to 60% between runs of one binary, and no
// statistic over a run removes a level that lasts the whole run.
//
// So a run is bound to one CPU, and a reference process on the same CPU times
// that echo every 20 ms. A window is cut into slices, each slice's times are
// multiplied by refEchoNS over the slice's median echo, its rates divided by
// it, and the window's numbers are medians over the slices: they read as on a
// host whose echo takes 8 us. The p99 does not follow the echo one to one;
// refP99 in workloads.go says how it is brought to reference speed.
//
// A fail-over is not a round trip on a warm connection but a connection
// set-up, and the host has a second disturbance that warm code does not see
// and cold code does: with the echo steady at 8.0 us the MEAD fail-over time
// wandered from 0.075 to 0.112 ms over sixteen runs, while its ratio to the
// time the reference process needs to connect to itself stayed within
// 1.81 to 2.03 (and 2.01 at the slow level). So the reference process times
// connection set-ups too, and fail-over times are multiplied by refDialNS
// over the slice's median set-up.
//
// The reference is a process of its own so that nothing the program under
// test does in its process (garbage collection, background goroutines, a
// larger working set) is in it: a change in the repository moves an
// invocation and leaves the reference alone. Every number at reference speed
// is printed beside the number as measured.
const (
	// refEchoNS and refDialNS are the echo and connection set-up times of the
	// reference host left alone.
	refEchoNS = 8000
	refDialNS = 50000
	// refEvery is the time between two bursts of the reference process.
	refEvery = 20 * time.Millisecond
	// refWarm untimed echoes bring the reference's code and sockets back into
	// the cache the program under test has just used; the median of the
	// refBurst timed ones that follow is one echo sample, and the median of
	// the refDials connection set-ups after them one dial sample.
	refWarm, refBurst, refDials = 2, 8, 3

	referenceEnv = "MEADBENCH_REFERENCE"
	pinnedEnv    = "MEADBENCH_CPU"
)

// pinned reports the CPU this process was bound to by pinAndReexec.
func pinned() (string, bool) {
	cpu := os.Getenv(pinnedEnv)
	return cpu, cpu != ""
}

// pinAndReexec binds the calling thread to the CPU it is running on and
// executes the program again: every thread of the new image, and every child
// it starts, inherits the binding. It returns only on error.
func pinAndReexec() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	raw, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		return err
	}
	// Field 39 is the CPU last run on; the command name, field 2, may hold
	// spaces and ends at the last ')'.
	fields := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(fields) < 37 {
		return errors.New("/proc/thread-self/stat: no processor field")
	}
	cpu, err := strconv.Atoi(fields[36])
	if err != nil || cpu < 0 || cpu >= 1024 {
		return fmt.Errorf("/proc/thread-self/stat: processor %q", fields[36])
	}
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
}

// referenceMain is the reference process: until its standard input closes it
// times, every refEvery, a burst of echoes between two goroutines of its own
// and a few connections to its own listener, then writes one
// "unix-nanoseconds echo-nanoseconds dial-nanoseconds" line per burst.
func referenceMain() error {
	runtime.GOMAXPROCS(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		return err
	}
	go func() {
		defer peer.Close()
		var buf [64]byte
		for {
			if _, err := io.ReadFull(peer, buf[:]); err != nil {
				return
			}
			if _, err := peer.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	if _, err := fmt.Println("ready"); err != nil {
		return err
	}

	// Samples leave in one write at the end: nothing of the reference reaches
	// the benchmark's process while it measures.
	var samples []byte
	var buf [64]byte
	pings := make([]float64, refBurst)
	dials := make([]float64, refDials)
	tick := time.NewTicker(refEvery)
	defer tick.Stop()
	for stopped := false; !stopped; {
		select {
		case <-tick.C:
		case <-stop:
			stopped = true // one last burst, so that the shortest life has a sample
		}
		for i := -refWarm; i < refBurst; i++ {
			t0 := time.Now()
			if _, err := conn.Write(buf[:]); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				return err
			}
			if i >= 0 {
				pings[i] = float64(time.Since(t0))
			}
		}
		for i := range dials {
			t0 := time.Now()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return err
			}
			dials[i] = float64(time.Since(t0))
			// A reset, not a FIN: no TIME_WAIT socket is left behind.
			_ = c.(*net.TCPConn).SetLinger(0)
			_ = c.Close()
		}
		samples = strconv.AppendInt(samples, time.Now().UnixNano(), 10)
		samples = append(samples, ' ')
		samples = strconv.AppendFloat(samples, median(pings), 'f', 0, 64)
		samples = append(samples, ' ')
		samples = strconv.AppendFloat(samples, median(dials), 'f', 0, 64)
		samples = append(samples, '\n')
	}
	_, err = os.Stdout.Write(samples)
	return err
}

// refSample is one burst of the reference process.
type refSample struct {
	at   int64   // wall clock, ns
	echo float64 // ns
	dial float64 // ns
}

// reference is a running reference process.
type reference struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startReference starts the reference process, on this process's CPU when a
// run has bound itself to one, and returns when it is measuring.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), referenceEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := &reference{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if line, err := r.out.ReadString('\n'); err != nil || line != "ready\n" {
		_ = stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("reference process said %q: %v", line, err)
	}
	return r, nil
}

// stop ends the reference process and returns its samples.
func (r *reference) stop() ([]refSample, error) {
	_ = r.stdin.Close()
	raw, readErr := io.ReadAll(r.out)
	if err := r.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("reference process: %w", err)
	}
	if readErr != nil {
		return nil, fmt.Errorf("reference process: %w", readErr)
	}
	var samples []refSample
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s refSample
		if _, err := fmt.Sscanf(line, "%d %f %f", &s.at, &s.echo, &s.dial); err != nil || s.echo <= 0 || s.dial <= 0 {
			return nil, fmt.Errorf("reference process: bad sample %q", line)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// echoes returns the echo times of samples.
func echoes(samples []refSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.echo
	}
	return out
}
