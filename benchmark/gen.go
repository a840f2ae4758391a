package main

import (
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"infilter/internal/netflow"
)

// The generator is one goroutine feeding both of the daemon's ports with
// the corpus' pre-encoded datagrams: closed loop and lossless in the
// saturate phase, open loop on a fixed schedule in the warm-up and paced
// phases.

const (
	maxBurst    = 32                     // datagrams per sendmmsg, as the daemon's recvmmsg reads
	pollSleep   = 50 * time.Microsecond  // wait before re-checking a full receive queue
	warmupRate  = 300_000                // records/s; far below what benign traffic saturates at
	drainPoll   = 5 * time.Millisecond   // /metrics poll while waiting for the last verdict
	drainStall  = 10 * time.Second       // no progress for this long: the records are lost
	alertStall  = time.Second            // no alert for this long after the last verdict: none will come
	daemonRcv   = 4 << 20                // the SO_RCVBUF infilterd asks for
	backlogTime = 100 * time.Millisecond // of work a receive queue may hold before the generator waits
	scrapeBurst = 2400                   // records in flight under scrape pacing
)

// pacer tells the saturate loop which receive sockets have room for a
// burst. The kernel pacer looks at /proc/net/udp, which costs the daemon
// nothing; the scrape pacer, for systems without it, asks the daemon.
type pacer interface {
	room(sentRecords int64) ([livePeers]bool, error)
	// quota is how many datagrams of at most maxLen bytes one port may
	// be sent after room said yes, before room must be asked again.
	quota(maxLen int) int
	mode() string
}

// kernelPacer keeps each socket's rx_queue below a limit: half its
// receive buffer, but no more than backlogTime of the workload's traffic.
// Half the buffer is two seconds of a suspect-heavy workload, and a loop
// that loose lets the generator finish early and leaves the daemon both
// cores for the rest of the phase; for benign traffic half the buffer is
// a few milliseconds and the cap does not bind.
type kernelPacer struct {
	f     *os.File
	buf   []byte
	ports [livePeers]int
	limit int
}

// skbSize bounds from above what the kernel charges a receive queue for a
// datagram of n bytes: the payload rounded up to a power of two, plus the
// buffer's own header.
func skbSize(n int) int { return 2*n + 1024 }

// newKernelPacer sizes the limit for a workload whose datagrams are at
// most maxLen bytes and carry its frozen saturate rate, split evenly over
// the ports.
func newKernelPacer(ports [livePeers]int, rmemMax int, rate float64, maxLen int) (*kernelPacer, error) {
	f, err := os.Open(procNetUDP)
	if err != nil {
		return nil, err
	}
	datagrams := rate / livePeers * backlogTime.Seconds() / netflow.MaxRecords
	// The kernel caps SO_RCVBUF at rmem_max and then doubles it for its
	// own bookkeeping, so half the real buffer is the capped request.
	limit := min(daemonRcv, rmemMax, int(datagrams)*skbSize(maxLen))
	return &kernelPacer{f: f, buf: make([]byte, 1<<16), ports: ports, limit: limit}, nil
}

// quota is how many datagrams of at most maxLen bytes may follow one look
// at the queue: a quota's worth adds at most half the limit on top of the
// limit, and the limit is at most half the buffer.
func (p *kernelPacer) quota(maxLen int) int {
	return max(1, p.limit/2/skbSize(maxLen))
}

func (p *kernelPacer) mode() string { return "kernel" }

func (p *kernelPacer) room(int64) ([livePeers]bool, error) {
	var ok [livePeers]bool
	n := 0
	for {
		m, err := p.f.ReadAt(p.buf[n:], int64(n))
		n += m
		if n < len(p.buf) {
			if err != nil && m == 0 && n == 0 {
				return ok, fmt.Errorf("read %s: %w", procNetUDP, err)
			}
			break
		}
		p.buf = append(p.buf, make([]byte, len(p.buf))...)
	}
	for i, s := range parseProcNetUDP(p.buf[:n], p.ports) {
		if !s.found {
			return ok, fmt.Errorf("%s: no socket on port %d", procNetUDP, p.ports[i])
		}
		ok[i] = s.rxQueue < p.limit
	}
	return ok, nil
}

func (p *kernelPacer) close() { p.f.Close() }

// scrapePacer bounds the records in flight by the daemon's own counter.
type scrapePacer struct{ d *daemon }

func (p scrapePacer) mode() string { return "scrape" }

func (p scrapePacer) quota(int) int { return scrapeBurst / netflow.MaxRecords / livePeers }

func (p scrapePacer) room(sent int64) ([livePeers]bool, error) {
	m, err := p.d.scrape()
	if err != nil {
		return [livePeers]bool{}, err
	}
	ok := sent-int64(m.sum("infilter_collector_records_total")) < scrapeBurst
	return [livePeers]bool{ok, ok}, nil
}

type generator struct {
	co    *corpus
	d     *daemon
	pacer pacer
	conns [livePeers]*net.UDPConn
	burst [livePeers]*burstSender
	curs  [livePeers]cursor
	raws  [][]byte // burst scratch

	sent int64 // records sent so far, all phases

	// quota is what one look at a receive queue allows; allow is what is
	// left of it per port. No datagram leaves without allowance, in any
	// phase, so the kernel never has to drop one.
	quota int
	allow [livePeers]int

	// Saturate phase.
	checks, full int64         // receive-queue checks, and those that found it full
	busy         time.Duration // saturate wall time not spent sleeping
	satWall      time.Duration
	windows      []progress // the daemon's verdict count at points along the phase

	// Paced phase: when each datagram was due, and how late it left.
	due  [livePeers][]time.Time
	late []float64 // milliseconds
}

// progress is the daemon's verdict count at one moment.
type progress struct {
	at    time.Time
	flows float64
}

func newGenerator(co *corpus, d *daemon, p pacer) (*generator, error) {
	g := &generator{co: co, d: d, pacer: p, raws: make([][]byte, 0, maxBurst), quota: p.quota(co.maxDatagram())}
	for i := range g.conns {
		conn, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: d.ports[i]})
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns[i] = conn
		if g.burst[i], err = newBurstSender(conn); err != nil {
			g.close()
			return nil, err
		}
		g.curs[i] = cursor{s: &co.streams[i]}
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		if c != nil {
			c.Close()
		}
	}
}

// refill looks at the receive queues once and grants a fresh quota to
// every port that has used its allowance up and has room.
func (g *generator) refill() error {
	room, err := g.pacer.room(g.sent)
	if err != nil {
		return err
	}
	for i := range g.allow {
		if g.allow[i] > 0 {
			continue
		}
		g.checks++
		if room[i] {
			g.allow[i] = g.quota
		} else {
			g.full++
		}
	}
	return nil
}

// sendRun sends sched[from:to] of one peer as a single burst, out of the
// peer's allowance.
func (g *generator) sendRun(peer int, sched []int32, from, to int) error {
	g.raws = g.raws[:0]
	for _, idx := range sched[from:to] {
		d := g.curs[peer].next(idx)
		g.raws = append(g.raws, d.raw)
		g.sent += int64(d.recs)
	}
	g.allow[peer] -= to - from
	return g.burst[peer].send(g.raws)
}

// mark notes the daemon's verdict count now.
func (g *generator) mark(m promSample) {
	g.windows = append(g.windows, progress{time.Now(), m.sum("infilter_pipeline_flows_total")})
}

// markIfDue scrapes and marks when the current window has run its length.
func (g *generator) markIfDue() error {
	if n := len(g.windows); n > 0 && time.Since(g.windows[n-1].at) < windowLength {
		return nil
	}
	m, err := g.d.scrape()
	if err != nil {
		return err
	}
	g.mark(m)
	return nil
}

// windowLength cuts the saturate phase, from the first datagram to the
// last verdict, into stretches; records_per_s is the median of the rates
// at which verdicts were given in them. The scrape that ends each stretch
// is all the load the benchmark itself puts on the daemon.
const windowLength = 500 * time.Millisecond

// saturate sends the saturate phase as fast as the daemon takes it: a
// burst goes to a port only while that port's receive queue has room, so
// nothing is ever dropped and the daemon, not the generator, sets the pace.
func (g *generator) saturate() error {
	var pos [livePeers]int
	total := 0
	for i := range pos {
		total += len(g.co.streams[i].sched[phaseSaturate])
	}
	g.checks, g.full = 0, 0
	var slept time.Duration
	start := time.Now()
	g.windows = g.windows[:0]
	if err := g.markIfDue(); err != nil {
		return err
	}
	for done := 0; done < total; {
		if err := g.markIfDue(); err != nil {
			return err
		}
		for i := range pos {
			if g.allow[i] == 0 && pos[i] < len(g.co.streams[i].sched[phaseSaturate]) {
				if err := g.refill(); err != nil {
					return err
				}
				break
			}
		}
		progressed := false
		for i := range pos {
			sched := g.co.streams[i].sched[phaseSaturate]
			if n := min(maxBurst, g.allow[i], len(sched)-pos[i]); n > 0 {
				if err := g.sendRun(i, sched, pos[i], pos[i]+n); err != nil {
					return err
				}
				pos[i] += n
				done += n
				progressed = true
			}
		}
		if !progressed {
			t := time.Now()
			time.Sleep(pollSleep)
			slept += time.Since(t)
		}
	}
	g.satWall = time.Since(start)
	g.busy = g.satWall - slept
	return nil
}

// windowRates turns the progress marks into records per second per
// window. A last window shorter than half a window joins the one before.
func (g *generator) windowRates() []float64 {
	marks := g.windows
	if n := len(marks); n > 2 && marks[n-1].at.Sub(marks[n-2].at) < windowLength/2 {
		marks = append(marks[:n-2:n-2], marks[n-1])
	}
	var rates []float64
	for i := 1; i < len(marks); i++ {
		if dt := marks[i].at.Sub(marks[i-1].at).Seconds(); dt > 0 {
			rates = append(rates, (marks[i].flows-marks[i-1].flows)/dt)
		}
	}
	return rates
}

// paced sends phase p open loop at rate records per second: every
// datagram has a due time fixed before the phase starts, the two peers
// alternating, and leaves as soon after it as the loop gets to it and the
// port's receive queue has room. A datagram held back is late, and the
// alert latency, which counts from the due time, pays for it. With record
// set, the due times and the lateness of each datagram are kept.
func (g *generator) paced(p phase, rate float64, record bool) error {
	var dueAfter [livePeers][]time.Duration
	var pos [livePeers]int
	cum, total := 0, 0
	for {
		added := false
		for i := range pos {
			sched := g.co.streams[i].sched[p]
			if pos[i] < len(sched) {
				dueAfter[i] = append(dueAfter[i], time.Duration(float64(cum)/rate*float64(time.Second)))
				cum += g.co.streams[i].pool[sched[pos[i]]].recs
				pos[i]++
				total++
				added = true
			}
		}
		if !added {
			break
		}
	}
	if record {
		for i := range g.due {
			g.due[i] = make([]time.Time, len(dueAfter[i]))
		}
		g.late = make([]float64, 0, total)
	}
	pos = [livePeers]int{}
	start := time.Now()
	for pos[0] < len(dueAfter[0]) || pos[1] < len(dueAfter[1]) {
		now := time.Since(start)
		sent, blocked, asked := false, false, false
		next := time.Duration(1 << 62)
		for i := range pos {
			to := pos[i]
			for to < len(dueAfter[i]) && dueAfter[i][to] <= now && to-pos[i] < maxBurst {
				to++
			}
			if to == pos[i] {
				if to < len(dueAfter[i]) {
					next = min(next, dueAfter[i][to])
				}
				continue
			}
			if g.allow[i] == 0 && !asked {
				if err := g.refill(); err != nil {
					return err
				}
				asked = true
			}
			if g.allow[i] == 0 {
				blocked = true
				continue
			}
			to = min(to, pos[i]+g.allow[i])
			if record {
				for k := pos[i]; k < to; k++ {
					g.due[i][k] = start.Add(dueAfter[i][k])
					g.late = append(g.late, float64(now-dueAfter[i][k])/float64(time.Millisecond))
				}
			}
			if err := g.sendRun(i, g.co.streams[i].sched[p], pos[i], to); err != nil {
				return err
			}
			pos[i] = to
			sent = true
		}
		switch {
		case sent:
		case blocked:
			time.Sleep(pollSleep)
		default:
			time.Sleep(next - time.Since(start))
		}
	}
	return nil
}

// drained is the outcome of waiting for the daemon to give its verdict on
// every record sent so far.
type drained struct {
	scrape   promSample
	missing  int64   // records still without a verdict when progress stopped
	maxQueue float64 // deepest shard queue seen while waiting
}

// drain polls /metrics until infilter_pipeline_flows_total reaches the
// records sent and infilter_alerts_sent_total reaches alerts, the alerts
// the reference expects by now: the daemon counts a flow before it judges
// it, so the last alerts trail the last count. These polls are the only
// load the benchmark puts on the daemon besides its traffic, and they
// happen only here, after a phase.
//
// With windows set (the saturate phase) it goes on marking the verdict
// count every windowLength, and marks the end at the last verdict.
func (g *generator) drain(windows bool, alerts int) (drained, error) {
	var out drained
	last, lastMove := -1.0, time.Now()
	verdicts := false
	for {
		m, err := g.d.scrape()
		if err != nil {
			return out, err
		}
		out.scrape = m
		out.maxQueue = max(out.maxQueue, m.max("infilter_pipeline_queue_depth"))
		flows := m.sum("infilter_pipeline_flows_total")
		if !verdicts {
			verdicts = int64(flows) >= g.sent
			if windows && (verdicts || time.Since(g.windows[len(g.windows)-1].at) >= windowLength) {
				g.mark(m)
			}
		}
		raised := m.sum("infilter_alerts_sent_total")
		if verdicts && int(raised) >= alerts {
			return out, nil
		}
		if flows+raised != last {
			last, lastMove = flows+raised, time.Now()
		} else if stall := time.Since(lastMove); stall > drainStall || (verdicts && stall > alertStall) {
			// Records without a verdict are lost; alerts that never come
			// are for the output checks to count.
			out.missing = max(g.sent-int64(flows), 0)
			return out, nil
		}
		time.Sleep(drainPoll)
	}
}

// latePercentile summarises how late the open loop ran.
func (g *generator) latePercentile(p float64) float64 {
	s := append([]float64(nil), g.late...)
	sort.Float64s(s)
	return percentile(s, p)
}
