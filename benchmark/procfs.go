package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// udpSock is one line of /proc/net/udp: bytes queued for the reader and
// datagrams the kernel dropped because the receive buffer was full.
type udpSock struct {
	rxQueue int
	drops   int
	found   bool
}

// nextField returns the next space-separated field of line and the rest.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && line[i] == ' ' {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' {
		j++
	}
	return line[i:j], line[j:]
}

func parseHex(b []byte) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | int(c-'0')
		case c >= 'A' && c <= 'F':
			n = n<<4 | int(c-'A'+10)
		case c >= 'a' && c <= 'f':
			n = n<<4 | int(c-'a'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

// parseProcNetUDP finds the sockets bound to the given local ports in the
// text of /proc/net/udp. It allocates nothing: the saturate loop calls it
// before every burst. Lines it cannot parse (the header) are skipped.
//
//	sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
//	427: 0100007F:8AD5 00000000:0000 07 00000000:00000300 00:00000000 00000000     0        0 29135 2 0000000000000000 7
func parseProcNetUDP(data []byte, ports [livePeers]int) (socks [livePeers]udpSock) {
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			data = nil
		}
		_, rest := nextField(line) // sl
		local, rest := nextField(rest)
		colon := bytes.IndexByte(local, ':')
		if colon < 0 {
			continue
		}
		port, ok := parseHex(local[colon+1:])
		if !ok {
			continue
		}
		which := -1
		for i, p := range ports {
			if p == port {
				which = i
			}
		}
		if which < 0 {
			continue
		}
		_, rest = nextField(rest) // rem_address
		_, rest = nextField(rest) // st
		queues, rest := nextField(rest)
		colon = bytes.IndexByte(queues, ':')
		if colon < 0 {
			continue
		}
		rxq, ok := parseHex(queues[colon+1:])
		if !ok {
			continue
		}
		var last []byte
		for f, r := nextField(rest); len(f) > 0; f, r = nextField(r) {
			last = f
		}
		drops, err := strconv.Atoi(string(last))
		if err != nil {
			continue
		}
		socks[which] = udpSock{rxQueue: rxq, drops: drops, found: true}
	}
	return socks
}

// procCPU is a process's CPU time in clock ticks, from /proc/<pid>/stat.
type procCPU struct{ user, sys int64 }

// parseProcStat reads utime and stime, fields 14 and 15. The command name
// (field 2) may hold spaces and parentheses, so fields count from the
// last ')'.
func parseProcStat(data []byte) (procCPU, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return procCPU{}, fmt.Errorf("proc stat: no command field")
	}
	fields := bytes.Fields(data[end+1:])
	if len(fields) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after the command", len(fields))
	}
	user, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	sys, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return procCPU{}, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	return procCPU{user, sys}, nil
}

// statusValue reads one "Key:   123 kB"-style line of /proc/<pid>/status.
func statusValue(data []byte, key string) (int64, bool) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(key+":")) {
			continue
		}
		f := bytes.Fields(line[len(key)+1:])
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(string(f[0]), 10, 64)
		return v, err == nil
	}
	return 0, false
}

// procSample is what the benchmark reads about the daemon from /proc.
type procSample struct {
	cpu       procCPU
	ctxSwitch int64 // voluntary + involuntary, summed over threads
	hwmKB     int64 // VmHWM
}

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseProcStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.hwmKB, _ = statusValue(status, "VmHWM")
	// The context-switch counters of /proc/<pid>/status are the main
	// thread's alone; the daemon's work happens on the others.
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		v, _ := statusValue(data, "voluntary_ctxt_switches")
		nv, _ := statusValue(data, "nonvoluntary_ctxt_switches")
		s.ctxSwitch += v + nv
	}
	return s, nil
}

// cpuTimes is the first line of /proc/stat: all CPU time so far, in ticks,
// and the part of it the hypervisor gave to someone else. Two readings
// bracket a run; ok is false where /proc/stat is missing.
type cpuTimes struct{ steal, total int64 }

func readCPUTimes() (cpuTimes, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}
