//go:build linux && amd64

package main

import (
	"net"
	"syscall"
	"unsafe"
)

// sysSendmmsg is SYS_SENDMMSG on linux/amd64, which package syscall
// stops one short of.
const sysSendmmsg = 307

// mmsghdr matches struct mmsghdr on linux/amd64.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// burstSender hands the kernel up to maxBurst datagrams per system call
// on a connected UDP socket, the mirror of the daemon's recvmmsg reader.
type burstSender struct {
	rc   syscall.RawConn
	iovs [maxBurst]syscall.Iovec
	hdrs [maxBurst]mmsghdr
}

func newBurstSender(conn *net.UDPConn) (*burstSender, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &burstSender{rc: rc}, nil
}

// send transmits all of raws (at most maxBurst), blocking while the
// socket's send buffer is full.
func (s *burstSender) send(raws [][]byte) error {
	for i, raw := range raws {
		s.iovs[i] = syscall.Iovec{Base: &raw[0], Len: uint64(len(raw))}
		s.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: &s.iovs[i], Iovlen: 1}}
	}
	for done := 0; done < len(raws); {
		var errno syscall.Errno
		err := s.rc.Write(func(fd uintptr) bool {
			n, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.hdrs[done])), uintptr(len(raws)-done), 0, 0, 0)
			if e == syscall.EAGAIN {
				return false // wait until writable, then retry
			}
			if e == 0 {
				done += int(n)
			}
			errno = e
			return true
		})
		if err != nil {
			return err
		}
		if errno != 0 && errno != syscall.EINTR {
			return errno
		}
	}
	return nil
}
