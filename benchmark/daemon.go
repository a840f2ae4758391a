package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// The daemon under test is the real cmd/infilterd binary, one
// configuration for all workloads:
//
//	infilterd -mode EI -ttl-tolerance 2 -ports <p1>,<p2> -alert <consumer>
//	          -admin-addr <a> -eia-file <f> -model <m> -stats 1h
//
// Everything else stays at its default: batched ingest, one reader and
// one shard per port, the Bloom tier at 10 bits.

const procNetUDP = "/proc/net/udp"

// buildDaemon compiles cmd/infilterd from the repository at root.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/infilterd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build infilterd: %w\n%s", err, msg)
	}
	return nil
}

// freePorts asks the kernel for n unused loopback ports of a network
// ("udp4" or "tcp4") by binding and releasing them.
func freePorts(network string, n int) ([]int, error) {
	var ports []int
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for range n {
		if network == "udp4" {
			c, err := net.ListenUDP(network, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, err
			}
			closers = append(closers, c)
			ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
		} else {
			l, err := net.Listen(network, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			closers = append(closers, l)
			ports = append(ports, l.Addr().(*net.TCPAddr).Port)
		}
	}
	return ports, nil
}

type daemon struct {
	cmd    *exec.Cmd
	ports  [livePeers]int
	admin  string // host:port
	log    *bytes.Buffer
	client *http.Client
	kernel bool          // /proc/net/udp is readable: kernel pacing
	setup  time.Duration // spawn to ready
	waited chan error
}

// startDaemon spawns the binary in dir (which holds eia.txt, and model.bin
// once a start has trained it) and waits until it is ready: /healthz
// answers ok and both UDP ports are bound. The admin listener comes up
// before the Bloom build and the binds, so /healthz alone is too early.
func startDaemon(ctx context.Context, bin, dir, consumerAddr string, kernel bool) (*daemon, error) {
	udp, err := freePorts("udp4", livePeers)
	if err != nil {
		return nil, err
	}
	tcp, err := freePorts("tcp4", 1)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		ports:  [livePeers]int{udp[0], udp[1]},
		admin:  "127.0.0.1:" + strconv.Itoa(tcp[0]),
		log:    new(bytes.Buffer),
		client: &http.Client{Timeout: 5 * time.Second},
		kernel: kernel,
		waited: make(chan error, 1),
	}
	d.cmd = exec.Command(bin,
		"-mode", "EI", "-ttl-tolerance", strconv.Itoa(daemonTTLTolerance),
		"-ports", fmt.Sprintf("%d,%d", d.ports[0], d.ports[1]),
		"-alert", consumerAddr, "-admin-addr", d.admin,
		"-eia-file", "eia.txt", "-model", "model.bin", "-stats", "1h")
	d.cmd.Dir = dir
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start infilterd: %w", err)
	}
	go func() { d.waited <- d.cmd.Wait() }()

	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-d.waited:
			return nil, fmt.Errorf("infilterd exited during start-up: %v\n%s", err, d.log)
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("infilterd not ready after 60s\n%s", d.log)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-tick.C:
		}
		if d.healthy() && d.bound() {
			d.setup = time.Since(start)
			return d, nil
		}
	}
}

func (d *daemon) healthy() bool {
	resp, err := d.client.Get("http://" + d.admin + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// bound reports whether the daemon holds both UDP ports. With /proc it
// looks; without, it tries to take each port itself and succeeds only
// while the daemon has not.
func (d *daemon) bound() bool {
	if d.kernel {
		data, err := os.ReadFile(procNetUDP)
		if err != nil {
			return false
		}
		socks := parseProcNetUDP(data, d.ports)
		return socks[0].found && socks[1].found
	}
	for _, p := range d.ports {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: p})
		if err == nil {
			c.Close()
			return false
		}
	}
	return true
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) scrape() (promSample, error) {
	resp, err := d.client.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(body), nil
}

// sockets reads the kernel's view of the two receive sockets.
func (d *daemon) sockets() ([livePeers]udpSock, error) {
	data, err := os.ReadFile(procNetUDP)
	if err != nil {
		return [livePeers]udpSock{}, err
	}
	return parseProcNetUDP(data, d.ports), nil
}

// stop asks the daemon to drain and exit, and waits for it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.waited:
		if err != nil {
			return fmt.Errorf("infilterd: %w\n%s", err, d.log)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("infilterd did not exit within 30s of SIGTERM\n%s", d.log)
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waited
}

// prepareRunDir writes the EIA file into a fresh directory for the daemon.
func prepareRunDir(dir string, eiaText []byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "eia.txt"), eiaText, 0o644)
}
