package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rpai/internal/wire/client"
)

// daemon is one rpaiserver subprocess.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	pprofAddr string
	exited    chan error
	logTail   *tailBuffer
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// freeAddr picks a loopback port for the daemon's pprof listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs the daemon on a data directory and returns once it
// listens. It hosts a catalog, recovers dir, and re-registers the workload's
// queries at boot (idempotent against the recovered manifest).
func startDaemon(bin, dir string, w workload, procs int) (*daemon, error) {
	pprofAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-partition", "sym", "-catalog", "-data", dir, "-pprof", pprofAddr}
	for _, sql := range w.sqls {
		args = append(args, "-register", sql)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, pprofAddr: pprofAddr, exited: make(chan error, 1), logTail: &tailBuffer{}}
	cmd.Stderr = d.logTail
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logTail.Write([]byte(line + "\n"))
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		io.Copy(io.Discard, out)
		d.exited <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("daemon exited before listening: %v: %s", err, d.logTail)
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, errors.New("daemon did not listen within 120s")
	}
}

// stop shuts the daemon down gracefully (SIGTERM drains and flushes) and
// waits for it; a daemon that hangs is killed.
func (d *daemon) stop() error {
	if d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		d.cmd.Process = nil
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("daemon ignored SIGTERM for 30s")
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd.Process = nil
}

// readAll reads every registered query's scalar and grouped result.
func readAll(c *client.Client) (results, error) {
	qs, err := c.ListQueries()
	if err != nil {
		return nil, err
	}
	out := make(results, len(qs))
	for _, q := range qs {
		s, err := c.ResultQuery(q.ID)
		if err != nil {
			return nil, err
		}
		g, err := c.ResultGroupedQuery(q.ID)
		if err != nil {
			return nil, err
		}
		out[q.ID] = queryResult{Scalar: s, Grouped: g}
	}
	return out, nil
}

// bootAndVerify execs the daemon on dir and returns it with the set-up time:
// from exec until the first read in which every query matches want bit for
// bit.
func bootAndVerify(bin, dir string, w workload, procs int, want results) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, dir, w, procs)
	if err != nil {
		return nil, 0, err
	}
	c, err := client.Dial(d.addr, client.Options{})
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	defer c.Close()
	for {
		got, err := readAll(c)
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		if msg := want.diff(got); msg == "" {
			return d, time.Since(t0), nil
		} else if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("recovered state never matched the warm reference: %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// heapLive reads HeapAlloc after a forced GC from the daemon's pprof
// listener. It reads twice and keeps the second: objects parked in a
// sync.Pool survive one collection in the pool's victim cache, so only the
// second forced GC leaves just the live state.
func (d *daemon) heapLive() (float64, error) {
	if _, err := d.heapAlloc(); err != nil {
		return 0, err
	}
	return d.heapAlloc()
}

func (d *daemon) heapAlloc() (float64, error) {
	resp, err := http.Get("http://" + d.pprofAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no HeapAlloc line in the heap profile")
}

// tailBuffer keeps the last few KiB the daemon printed, for error messages.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 4096 {
		t.b = append(t.b[:0], t.b[len(t.b)-4096:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
