package client

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"haindex/internal/wire"
)

// startHandshakeServer runs a one-frame in-test shard server: it reads the
// client's Hello and answers it with the given frame.
func startHandshakeServer(t *testing.T, typ wire.MsgType, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if got, _, err := wire.ReadFrame(bufio.NewReader(conn)); err != nil || got != wire.MsgHello {
					return
				}
				wire.WriteFrame(conn, typ, payload)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDialRejectsVersionMismatch: a shard one protocol version behind or
// ahead fails Dial with an error naming both versions, and a shard that
// refuses the client's Hello fails Dial with the shard's own error.
func TestDialRejectsVersionMismatch(t *testing.T) {
	for _, v := range []int{wire.Version - 1, wire.Version + 1} {
		ok := wire.HelloOK{Version: v, Length: 32, Part: 0, Parts: 1}
		addr := startHandshakeServer(t, wire.MsgHelloOK, ok.Append(nil))
		_, err := Dial([][]string{{addr}}, Options{})
		if err == nil {
			t.Fatalf("Dial accepted a version-%d shard", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("speaks %d", wire.Version)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d: error %q does not mention %q", v, err, want)
			}
		}
	}
	refusal := "client speaks protocol version 1, server speaks 2"
	addr := startHandshakeServer(t, wire.MsgError, wire.ErrorMsg{Msg: refusal}.Append(nil))
	if _, err := Dial([][]string{{addr}}, Options{}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("Dial against a refusing shard: %v", err)
	}
}
