package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// wireServer serves a platform handler on a loopback httptest server and
// counts the TCP connections clients open. When timed, a wrapper around
// the handler records each request's server time and response size,
// keyed by access token, for the client that issued it to collect.
type wireServer struct {
	srv   *httptest.Server
	conns atomic.Int64

	mu    sync.Mutex
	calls map[string][]serverCall
}

// serverCall is one request as the server saw it.
type serverCall struct {
	Start, End time.Time
	Bytes      int64
}

func newWireServer(h http.Handler, timed bool) *wireServer {
	ws := &wireServer{calls: make(map[string][]serverCall)}
	if timed {
		h = ws.wrap(h)
	}
	ws.srv = httptest.NewUnstartedServer(h)
	ws.srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			ws.conns.Add(1)
		}
	}
	ws.srv.Start()
	return ws
}

// URL is the server's base URL.
func (ws *wireServer) URL() string { return ws.srv.URL }

// Close shuts the server down, waiting for in-flight requests.
func (ws *wireServer) Close() { ws.srv.Close() }

// Conns is the number of connections accepted so far.
func (ws *wireServer) Conns() int64 { return ws.conns.Load() }

// Take returns and forgets the requests recorded for token. Clients
// partition the token holders, so no two ops with one token are in
// flight at once.
func (ws *wireServer) Take(token string) []serverCall {
	ws.mu.Lock()
	c := ws.calls[token]
	delete(ws.calls, token)
	ws.mu.Unlock()
	return c
}

func (ws *wireServer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token := r.URL.Query().Get("access_token")
		if token == "" && r.Body != nil {
			// The form body is read here and handed on unchanged; this
			// happens before the server time starts.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if v, err := url.ParseQuery(string(body)); err == nil {
				token = v.Get("access_token")
			}
		}
		// The response is held back until the call is recorded, so a
		// client can never collect its op before the server's view of it
		// is in place.
		bw := &bufferedWriter{header: make(http.Header), status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(bw, r)
		call := serverCall{Start: start, End: time.Now(), Bytes: int64(bw.body.Len())}
		ws.mu.Lock()
		ws.calls[token] = append(ws.calls[token], call)
		ws.mu.Unlock()
		for k, v := range bw.header {
			w.Header()[k] = v
		}
		w.WriteHeader(bw.status)
		_, _ = w.Write(bw.body.Bytes()) // a failed write surfaces as a client error
	})
}

// bufferedWriter holds a handler's whole response.
type bufferedWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedWriter) Header() http.Header         { return b.header }
func (b *bufferedWriter) WriteHeader(status int)      { b.status = status }
func (b *bufferedWriter) Write(p []byte) (int, error) { return b.body.Write(p) }

// wireStats accumulates the client-side view of timed wire ops.
type wireStats struct {
	server, client []time.Duration // per like: server time, client time minus server time
	readBytes      int64
	reads          int64
}

// noteLike records one like op that took total at the client.
func (s *wireStats) noteLike(total time.Duration, calls []serverCall) {
	var srv time.Duration
	for _, c := range calls {
		srv += c.End.Sub(c.Start)
	}
	s.server = append(s.server, srv)
	s.client = append(s.client, total-srv)
}

// noteRead records one paginated read's response bytes.
func (s *wireStats) noteRead(calls []serverCall) {
	s.reads++
	for _, c := range calls {
		s.readBytes += c.Bytes
	}
}

func (s *wireStats) merge(o *wireStats) {
	s.server = append(s.server, o.server...)
	s.client = append(s.client, o.client...)
	s.readBytes += o.readBytes
	s.reads += o.reads
}

// layer returns the platform.http metrics for ops client ops over ws.
func (s *wireStats) layer(ws *wireServer, ops int64) map[string]float64 {
	return map[string]float64{
		"platform.http.conns_per_op":        ratio(float64(ws.Conns()), float64(ops)),
		"platform.http.server_us_p50":       us(p50(s.server)),
		"platform.http.client_us_p50":       us(p50(s.client)),
		"platform.http.resp_bytes_per_read": ratio(float64(s.readBytes), float64(s.reads)),
	}
}
