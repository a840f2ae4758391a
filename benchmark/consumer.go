package main

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"infilter/internal/idmef"
	"infilter/internal/netaddr"
)

// consumer is the IDMEF alert sink the daemon dials. While a phase runs it
// only copies bytes and notes when each read returned; frames are cut and
// parsed after the phase, so it does not compete with the daemon for the
// second core.
type consumer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	buf   []byte
	marks []readMark
	conns []net.Conn
}

// readMark says that the stream's first end bytes had arrived by at.
type readMark struct {
	end int
	at  time.Time
}

func newConsumer() (*consumer, error) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &consumer{ln: ln}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

func (c *consumer) addr() string { return c.ln.Addr().String() }

func (c *consumer) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		c.conns = append(c.conns, conn)
		c.mu.Unlock()
		c.wg.Add(1)
		go c.read(conn)
	}
}

func (c *consumer) read(conn net.Conn) {
	defer c.wg.Done()
	chunk := make([]byte, 256<<10)
	for {
		n, err := conn.Read(chunk)
		if n > 0 {
			at := time.Now()
			c.mu.Lock()
			c.buf = append(c.buf, chunk[:n]...)
			c.marks = append(c.marks, readMark{len(c.buf), at})
			c.mu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

// reserve grows the buffer ahead of a run so appends do not reallocate
// while alerts are arriving.
func (c *consumer) reserve(bytes int) {
	c.mu.Lock()
	if cap(c.buf)-len(c.buf) < bytes {
		c.buf = append(make([]byte, 0, len(c.buf)+bytes), c.buf...)
	}
	c.mu.Unlock()
}

// release drops the buffered stream once its frames have been parsed.
func (c *consumer) release() {
	c.mu.Lock()
	c.buf, c.marks = nil, nil
	c.mu.Unlock()
}

// close stops listening, drops the connections and waits for the readers.
func (c *consumer) close() {
	c.ln.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// receivedAlert is one parsed frame.
type receivedAlert struct {
	key   alertKey
	stage idmef.Stage
	at    time.Time
}

var frameSep = []byte("\n\n")

// frames cuts everything received so far into frames and parses them.
// Call it once the daemon has stopped sending.
func (c *consumer) frames() ([]receivedAlert, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []receivedAlert
	data, off, mark := c.buf, 0, 0
	for {
		i := bytes.Index(data[off:], frameSep)
		if i < 0 {
			break
		}
		end := off + i + len(frameSep)
		for c.marks[mark].end < end {
			mark++
		}
		frame := data[off : off+i]
		off = end
		if len(bytes.TrimSpace(frame)) == 0 {
			continue
		}
		a, err := parseAlertFrame(frame)
		if err != nil {
			return nil, err
		}
		a.at = c.marks[mark].at
		out = append(out, a)
	}
	if rest := bytes.TrimSpace(data[off:]); len(rest) > 0 {
		return nil, fmt.Errorf("alert stream ends inside a frame (%d bytes)", len(rest))
	}
	return out, nil
}

// element returns the text of the n-th <tag>…</tag> in frame (0-based).
func element(frame []byte, tag string, n int) ([]byte, bool) {
	open, shut := []byte("<"+tag+">"), []byte("</"+tag+">")
	for ; ; n-- {
		i := bytes.Index(frame, open)
		if i < 0 {
			return nil, false
		}
		frame = frame[i+len(open):]
		j := bytes.Index(frame, shut)
		if j < 0 {
			return nil, false
		}
		if n == 0 {
			return frame[:j], true
		}
		frame = frame[j+len(shut):]
	}
}

// parseAlertFrame pulls the flow key and the stage out of one IDMEF
// document by tag search. A run takes in hundreds of thousands of alerts,
// and encoding/xml would need seconds for them; TestParseAlertFrame holds
// this reader to idmef.Unmarshal.
func parseAlertFrame(frame []byte) (receivedAlert, error) {
	var a receivedAlert
	bad := func(what string) (receivedAlert, error) {
		return a, fmt.Errorf("alert frame: no %s in %q", what, frame)
	}
	var addrs [2]netaddr.Addr
	var ports [2]uint16
	for n := range addrs {
		raw, ok := element(frame, "Address", n)
		if !ok {
			return bad("Address")
		}
		addr, err := netaddr.ParseAddr(string(raw))
		if err != nil {
			return bad("valid Address")
		}
		addrs[n] = addr
		raw, ok = element(frame, "Port", n)
		if !ok {
			return bad("Port")
		}
		port, err := strconv.ParseUint(string(raw), 10, 16)
		if err != nil {
			return bad("valid Port")
		}
		ports[n] = uint16(port)
	}
	stage, ok := element(frame, "Stage", 0)
	if !ok {
		return bad("Stage")
	}
	a.key = alertKey{src: addrs[0], dst: addrs[1], sport: ports[0], dport: ports[1]}
	a.stage = idmef.Stage(stage)
	return a, nil
}
