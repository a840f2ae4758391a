package idmef

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"infilter/internal/telemetry"
)

// Alert documents are framed on the wire by a blank line (consecutive
// newlines), letting one TCP stream carry many alerts.
var frameSep = []byte("\n\n")

// SenderMetrics are the alert-sink runtime counters: alerts delivered,
// write failures, and reconnects performed while recovering from one.
// The zero value is a sender's uninstrumented default: its nil counters
// discard counts.
type SenderMetrics struct {
	Sent       *telemetry.Counter
	SendErrors *telemetry.Counter
	Reconnects *telemetry.Counter
}

// NewSenderMetrics registers the alert-sink counters on r.
func NewSenderMetrics(r *telemetry.Registry) *SenderMetrics {
	return &SenderMetrics{
		Sent:       r.Counter("infilter_alerts_sent_total", "IDMEF alerts delivered to the consumer."),
		SendErrors: r.Counter("infilter_alert_send_errors_total", "Alert writes that failed on the consumer connection."),
		Reconnects: r.Counter("infilter_alert_reconnects_total", "Consumer connections re-established after a failed write."),
	}
}

// Sender delivers alerts to an IDMEF consumer over TCP. A failed write
// redials the consumer once and retries the alert, so a consumer restart
// costs at most the alerts in flight during the outage.
type Sender struct {
	addr    string
	metrics *SenderMetrics

	mu   sync.Mutex
	conn net.Conn
}

// Dial connects to a consumer at addr.
func Dial(addr string) (*Sender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("idmef: dial %s: %w", addr, err)
	}
	return &Sender{addr: addr, conn: conn, metrics: &SenderMetrics{}}, nil
}

// SetMetrics installs runtime counters (nil restores the uninstrumented
// default). It must be called before the sender is shared with
// concurrent alert emitters.
func (s *Sender) SetMetrics(m *SenderMetrics) {
	if m == nil {
		m = &SenderMetrics{}
	}
	s.metrics = m
}

// Send transmits one alert. Safe for concurrent use. When the write
// fails (consumer restarted, connection reset), the sender redials and
// retries once before reporting the error.
func (s *Sender) Send(a Alert) error {
	raw, err := Marshal(a)
	if err != nil {
		return err
	}
	payload := append(raw, frameSep...)
	m := s.metrics
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.conn.Write(payload); err != nil {
		m.SendErrors.Inc()
		conn, derr := net.Dial("tcp", s.addr)
		if derr != nil {
			return fmt.Errorf("idmef: send alert %s: %w (redial: %v)", a.MessageID, err, derr)
		}
		s.conn.Close()
		s.conn = conn
		m.Reconnects.Inc()
		if _, err := s.conn.Write(payload); err != nil {
			m.SendErrors.Inc()
			return fmt.Errorf("idmef: send alert %s after reconnect: %w", a.MessageID, err)
		}
	}
	m.Sent.Inc()
	return nil
}

// Close closes the connection.
func (s *Sender) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Close()
}

// Consumer is the Alert-UI backend: a TCP listener that parses incoming
// IDMEF documents and hands them to a handler.
type Consumer struct {
	handler func(Alert)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ErrConsumerClosed is returned when Listen is called after Close.
var ErrConsumerClosed = errors.New("idmef: consumer closed")

// NewConsumer returns a consumer dispatching alerts to handler.
func NewConsumer(handler func(Alert)) *Consumer {
	return &Consumer{handler: handler, conns: make(map[net.Conn]struct{})}
}

// Listen binds a TCP listener on 127.0.0.1:port (0 picks a free port) and
// starts accepting senders. It returns the bound port.
func (c *Consumer) Listen(port int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrConsumerClosed
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return 0, fmt.Errorf("idmef: listen %d: %w", port, err)
	}
	c.ln = ln
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		ln.Close()
		return 0, fmt.Errorf("idmef: unexpected addr type %T", ln.Addr())
	}
	c.wg.Add(1)
	go c.acceptLoop(ln)
	return addr.Port, nil
}

func (c *Consumer) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.readLoop(conn)
	}
}

func (c *Consumer) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	sc.Split(splitFrames)
	for sc.Scan() {
		frame := sc.Bytes()
		if len(bytes.TrimSpace(frame)) == 0 {
			continue
		}
		alert, err := Unmarshal(frame)
		if err != nil {
			continue // skip malformed frames, keep the stream alive
		}
		c.handler(alert)
	}
}

// splitFrames is a bufio.SplitFunc cutting the stream at blank lines.
func splitFrames(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.Index(data, frameSep); i >= 0 {
		return i + len(frameSep), data[:i], nil
	}
	if atEOF {
		if len(data) == 0 {
			return 0, nil, io.EOF
		}
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Close stops the listener and waits for handler goroutines to finish.
// Safe to call multiple times.
func (c *Consumer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	c.wg.Wait()
	return err
}
