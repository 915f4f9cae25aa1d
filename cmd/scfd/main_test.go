package main

import (
	"net/http"
	"testing"
)

// The listener must bound how long a client may take to send its
// headers and how long an idle keep-alive connection lives.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("whole-request timeouts %v/%v would cut progress streams", srv.ReadTimeout, srv.WriteTimeout)
	}
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Errorf("server not wired: addr %q, handler %v", srv.Addr, srv.Handler)
	}
}
