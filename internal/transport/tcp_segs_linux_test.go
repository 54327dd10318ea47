package transport

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"unsafe"
)

// segsOut sums tcpi_segs_out, the segments the kernel has sent, over the
// connections the links write on; over both ends of a pair that share
// one connection, every segment of it. ok is false where the kernel's
// struct tcp_info ends before the field (the u32 at offset 136, there
// since Linux 4.2).
func segsOut(links ...*SessTCP) (segs uint64, ok bool) {
	var conns []net.Conn
	for _, l := range links {
		l.mu.Lock()
		for _, pc := range l.conns {
			if pc.conn != nil {
				conns = append(conns, pc.conn)
			}
		}
		l.mu.Unlock()
	}
	for _, c := range conns {
		raw, err := c.(*net.TCPConn).SyscallConn()
		if err != nil {
			return 0, false
		}
		var info [256]byte
		n := uint32(len(info))
		var errno syscall.Errno
		err = raw.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
				uintptr(unsafe.Pointer(&info[0])), uintptr(unsafe.Pointer(&n)), 0)
		})
		if err != nil || errno != 0 || n < 144 {
			return 0, false
		}
		segs += uint64(binary.NativeEndian.Uint32(info[136:]))
	}
	return segs, true
}

// BenchmarkSessTCPPingPong sends one frame each way per op over a
// loopback pair, each waiting for the other, and reports the TCP segments
// the pair's sockets sent per frame: 1 when every TCP ack rides on the
// frame back, 2 when each frame costs a pure ack too. It asserts nothing.
func BenchmarkSessTCPPingPong(b *testing.B) {
	_, links := tcpLinks(b, 2, 0, 1)
	a, c := links[0], links[1]
	defer a.Close()
	defer c.Close()
	there, back := SessFrame{From: 0, Seq: 1, Batch: envBatch(1, 1)}, SessFrame{From: 1, Ack: 1}
	pingPong := func() {
		if err := a.SendFrame(1, there); err != nil {
			b.Fatal(err)
		}
		<-c.RecvFrame()
		if err := c.SendFrame(0, back); err != nil {
			b.Fatal(err)
		}
		<-a.RecvFrame()
	}
	pingPong() // the dial
	before, ok := segsOut(a, c)
	if !ok {
		b.Skip("the kernel's tcp_info has no tcpi_segs_out")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pingPong()
	}
	b.StopTimer()
	after, _ := segsOut(a, c)
	b.ReportMetric(float64(after-before)/float64(2*b.N), "segs/frame")
}
