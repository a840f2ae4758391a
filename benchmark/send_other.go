//go:build !(linux && amd64)

package main

import "net"

// burstSender without sendmmsg: one write per datagram.
type burstSender struct{ conn *net.UDPConn }

func newBurstSender(conn *net.UDPConn) (*burstSender, error) {
	return &burstSender{conn: conn}, nil
}

func (s *burstSender) send(raws [][]byte) error {
	for _, raw := range raws {
		if _, err := s.conn.Write(raw); err != nil {
			return err
		}
	}
	return nil
}
