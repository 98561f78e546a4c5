package httpx

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

type world struct {
	sch            *sim.Scheduler
	client, server *tcp.Host
}

func newWorld(seed int64) *world {
	sch := sim.NewScheduler(seed)
	client := tcp.NewHost(sch, 10, 0, 0, 1)
	server := tcp.NewHost(sch, 203, 0, 113, 10)
	prof := netem.Profile{Name: "t", Down: 20 * netem.Mbps, Up: 20 * netem.Mbps, RTT: 20 * time.Millisecond}
	tree := netem.NewProfileTree(sch, prof, 1, server)
	server.SetLink(tree.Down(0, 0))
	client.SetLink(tree.Attach(client.Addr().Addr, client))
	return &world{sch: sch, client: client, server: server}
}

func (w *world) dial() *ClientConn {
	c := w.client.Dial(tcp.Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	return NewClientConn(c)
}

func TestSimpleGET(t *testing.T) {
	w := newWorld(1)
	var gotPath string
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		gotPath = req.Path
		rw.WriteHeader(200, map[string]string{"Content-Length": "5", "Content-Type": "video/flv"})
		rw.Write([]byte("ABCDE"))
	})
	cc := w.dial()
	var resp *Response
	body := make([]byte, 0, 8)
	cc.OnResponse(func(r *Response) { resp = r })
	cc.OnBody(func(avail int) {
		buf := make([]byte, avail)
		n := cc.ReadBody(buf)
		body = append(body, buf[:n]...)
	})
	cc.Get("/video/42", map[string]string{"User-Agent": "sim"})
	w.sch.RunUntil(2 * time.Second)
	if gotPath != "/video/42" {
		t.Fatalf("server saw path %q", gotPath)
	}
	if resp == nil || resp.Status != 200 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Headers["content-type"] != "video/flv" {
		t.Fatalf("headers = %v", resp.Headers)
	}
	if string(body) != "ABCDE" {
		t.Fatalf("body = %q", body)
	}
}

func TestLargeZeroBody(t *testing.T) {
	w := newWorld(2)
	const size = 3 << 20
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(size)})
		rw.WriteZero(size)
	})
	cc := w.dial()
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/big", nil)
	w.sch.RunUntil(30 * time.Second)
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	if cc.BodyRemaining() != 0 {
		t.Fatalf("BodyRemaining = %d", cc.BodyRemaining())
	}
}

func TestRangeRequests(t *testing.T) {
	w := newWorld(3)
	const fileSize = int64(1 << 20)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		start, end, ok := req.Range()
		if !ok {
			t.Errorf("no range header in %v", req.Headers)
			return
		}
		if end < 0 || end >= fileSize {
			end = fileSize - 1
		}
		n := int(end - start + 1)
		rw.WriteHeader(206, map[string]string{"Content-Length": strconv.Itoa(n)})
		rw.WriteZero(n)
	})
	cc := w.dial()
	var statuses []int
	got := 0
	cc.OnResponse(func(r *Response) { statuses = append(statuses, r.Status) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/f", map[string]string{"Range": "bytes=0-65535"})
	w.sch.RunUntil(5 * time.Second)
	cc.Get("/f", map[string]string{"Range": "bytes=65536-131071"})
	w.sch.RunUntil(10 * time.Second)
	if len(statuses) != 2 || statuses[0] != 206 || statuses[1] != 206 {
		t.Fatalf("statuses = %v", statuses)
	}
	if got != 128<<10 {
		t.Fatalf("got %d body bytes, want %d", got, 128<<10)
	}
}

func TestRangeParsing(t *testing.T) {
	cases := []struct {
		in         string
		start, end int64
		ok         bool
	}{
		{"bytes=0-99", 0, 99, true},
		{"bytes=500-", 500, -1, true},
		{"bytes=abc-def", 0, 0, false},
		{"junk", 0, 0, false},
	}
	for _, c := range cases {
		r := &Request{Headers: map[string]string{"range": c.in}}
		s, e, ok := r.Range()
		if ok != c.ok || (ok && (s != c.start || e != c.end)) {
			t.Errorf("Range(%q) = %d,%d,%v; want %d,%d,%v", c.in, s, e, ok, c.start, c.end, c.ok)
		}
	}
	r := &Request{Headers: map[string]string{}}
	if _, _, ok := r.Range(); ok {
		t.Error("missing header must not parse")
	}
}

func TestResolveRange(t *testing.T) {
	const size = 1000
	cases := []struct {
		in       string
		start, n int64
		has, ok  bool
	}{
		{"bytes=0-99", 0, 100, true, true},
		{"bytes=900-", 900, 100, true, true},
		{"bytes=0-", 0, 1000, true, true},
		// End past EOF clamps to the last byte.
		{"bytes=990-5000", 990, 10, true, true},
		{"bytes=0-999999", 0, 1000, true, true},
		// Suffix ranges.
		{"bytes=-100", 900, 100, true, true},
		{"bytes=-1", 999, 1, true, true},
		// Suffix longer than the resource clamps to the whole file.
		{"bytes=-5000", 0, 1000, true, true},
		// Unsatisfiable: start at/past EOF, inverted, malformed, empty
		// suffix.
		{"bytes=1000-", 0, 0, true, false},
		{"bytes=5000-6000", 0, 0, true, false},
		{"bytes=5-4", 0, 0, true, false},
		{"bytes=-0", 0, 0, true, false},
		{"bytes=abc-def", 0, 0, true, false},
		{"junk", 0, 0, true, false},
		{"bytes=--5", 0, 0, true, false},
	}
	for _, c := range cases {
		r := &Request{Headers: map[string]string{"range": c.in}}
		start, n, has, ok := r.ResolveRange(size)
		if has != c.has || ok != c.ok || (ok && (start != c.start || n != c.n)) {
			t.Errorf("ResolveRange(%q) = %d,%d,%v,%v; want %d,%d,%v,%v",
				c.in, start, n, has, ok, c.start, c.n, c.has, c.ok)
		}
	}
	// No header at all.
	r := &Request{Headers: map[string]string{}}
	if _, _, has, _ := r.ResolveRange(size); has {
		t.Error("missing header must report hasRange=false")
	}
	// A zero-length resource satisfies nothing.
	r = &Request{Headers: map[string]string{"range": "bytes=0-"}}
	if _, _, _, ok := r.ResolveRange(0); ok {
		t.Error("empty resource must be unsatisfiable")
	}
	r = &Request{Headers: map[string]string{"range": "bytes=-10"}}
	if _, _, _, ok := r.ResolveRange(0); ok {
		t.Error("suffix on empty resource must be unsatisfiable")
	}
}

func TestZeroLengthBody(t *testing.T) {
	// A Content-Length: 0 response (the 404/416 shape) must complete
	// without a body phase and leave the connection usable for the
	// next exchange.
	w := newWorld(7)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		if req.Path == "/empty" {
			rw.WriteHeader(416, map[string]string{"Content-Length": "0"})
			return
		}
		rw.WriteHeader(200, map[string]string{"Content-Length": "3"})
		rw.Write([]byte("abc"))
	})
	cc := w.dial()
	var statuses []int
	got := 0
	cc.OnResponse(func(r *Response) { statuses = append(statuses, r.Status) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/empty", map[string]string{"Range": "bytes=5000-"})
	w.sch.RunUntil(2 * time.Second)
	cc.Get("/next", nil)
	w.sch.RunUntil(4 * time.Second)
	if len(statuses) != 2 || statuses[0] != 416 || statuses[1] != 200 {
		t.Fatalf("statuses = %v", statuses)
	}
	if got != 3 {
		t.Fatalf("body bytes = %d, want 3", got)
	}
	if cc.BodyRemaining() != 0 {
		t.Fatalf("BodyRemaining = %d", cc.BodyRemaining())
	}
}

func TestPipelinedSequentialRequests(t *testing.T) {
	// Two requests on one connection where responses arrive back to
	// back; the client must delimit them via Content-Length.
	w := newWorld(4)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		n, _ := strconv.Atoi(req.Path[1:])
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(n)})
		rw.WriteZero(n)
	})
	cc := w.dial()
	var sizes []int64
	got := 0
	cc.OnResponse(func(r *Response) { sizes = append(sizes, r.ContentLength) })
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	cc.Get("/1000", nil)
	cc.Get("/2000", nil) // pipelined immediately
	w.sch.RunUntil(5 * time.Second)
	if len(sizes) != 2 || sizes[0] != 1000 || sizes[1] != 2000 {
		t.Fatalf("sizes = %v", sizes)
	}
	if got != 3000 {
		t.Fatalf("got %d, want 3000", got)
	}
}

func TestSlowReaderClosesWindow(t *testing.T) {
	// The client never drains the body: the transfer must stall after
	// filling the receive buffer — the foundation of pull pacing.
	w := newWorld(5)
	const size = 4 << 20
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {
		rw.WriteHeader(200, map[string]string{"Content-Length": strconv.Itoa(size)})
		rw.WriteZero(size)
	})
	c := w.client.Dial(tcp.Config{RecvBuf: 128 << 10}, packet.EP(203, 0, 113, 10, 80))
	cc := NewClientConn(c)
	cc.Get("/big", nil)
	w.sch.RunUntil(3 * time.Second)
	buffered := cc.Conn.Buffered()
	if buffered == 0 || buffered > 128<<10 {
		t.Fatalf("buffered = %d, want (0, 128KiB]", buffered)
	}
	w.sch.RunUntil(6 * time.Second)
	if cc.Conn.Buffered() != buffered {
		t.Fatal("transfer did not stall with a full receive buffer")
	}
	// Now drain; it must complete.
	got := 0
	cc.OnBody(func(avail int) { got += cc.DiscardBody(avail) })
	var drain func()
	drain = func() {
		got += cc.DiscardBody(1 << 30)
		if got < size {
			w.sch.After(50*time.Millisecond, drain)
		}
	}
	w.sch.After(0, drain)
	w.sch.RunUntil(60 * time.Second)
	if got != size {
		t.Fatalf("drained %d/%d", got, size)
	}
}

func TestBadRequestAborts(t *testing.T) {
	w := newWorld(6)
	NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) {})
	c := w.client.Dial(tcp.Config{}, packet.EP(203, 0, 113, 10, 80))
	closed := false
	c.SetCallbacks(tcp.Callbacks{
		OnConnected: func() { c.Write([]byte("NONSENSE\r\n\r\n")) },
		OnClosed:    func() { closed = true },
	})
	w.sch.RunUntil(2 * time.Second)
	if !closed {
		t.Fatal("malformed request should reset the connection")
	}
}

func TestParseRequestHeaders(t *testing.T) {
	req, err := parseRequest("GET /x HTTP/1.1\r\nHost: media\r\nRange: bytes=0-5\r\nX-Thing:  padded  ")
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/x" {
		t.Fatalf("req = %+v", req)
	}
	if req.Headers["x-thing"] != "padded" {
		t.Fatalf("headers = %v", req.Headers)
	}
	if _, err := parseRequest("BROKEN"); err == nil {
		t.Fatal("bad request line must error")
	}
}

func TestParseResponseErrors(t *testing.T) {
	if _, err := parseResponse("HTTP/1.1 abc OK"); err == nil {
		t.Fatal("bad status must error")
	}
	if _, err := parseResponse("SPDY/3 200 OK"); err == nil {
		t.Fatal("bad proto must error")
	}
	if _, err := parseResponse("HTTP/1.1 200 OK\r\nContent-Length: xyz"); err == nil {
		t.Fatal("bad content-length must error")
	}
	if _, err := parseResponse("HTTP/1.1 200 OK\r\nContent-Length: -1"); err == nil {
		t.Fatal("negative content-length must error")
	}
	r, err := parseResponse("HTTP/1.1 206 Partial Content\r\nContent-Length: 42")
	if err != nil || r.Status != 206 || r.ContentLength != 42 {
		t.Fatalf("parse = %+v, %v", r, err)
	}
}

// paddedHead returns a request head of exactly n bytes, ending in the
// blank line when terminated is set.
func paddedHead(n int, terminated bool) []byte {
	head := []byte("GET /x HTTP/1.1\r\nX-Pad: ")
	end := n
	if terminated {
		end -= 4
	}
	for len(head) < end {
		head = append(head, 'a')
	}
	if terminated {
		head = append(head, "\r\n\r\n"...)
	}
	return head
}

// TestOversizedRequestHeadAborts: a request head that does not end
// within maxHeaderBytes resets the connection instead of growing the
// server's buffer; one that ends exactly at the bound is served.
func TestOversizedRequestHeadAborts(t *testing.T) {
	for _, tc := range []struct {
		head   []byte
		served bool
	}{
		{paddedHead(2*maxHeaderBytes, false), false},
		{paddedHead(maxHeaderBytes+1, true), false},
		{paddedHead(maxHeaderBytes, true), true},
	} {
		w := newWorld(7)
		served := 0
		NewServer(w.server, 80, tcp.Config{}, func(req *Request, rw ResponseWriter) { served++ })
		c := w.client.Dial(tcp.Config{}, packet.EP(203, 0, 113, 10, 80))
		closed := false
		c.SetCallbacks(tcp.Callbacks{
			OnConnected: func() { c.Write(tc.head) },
			OnClosed:    func() { closed = true },
		})
		w.sch.RunUntil(2 * time.Second)
		if closed == tc.served || (served == 1) != tc.served {
			t.Fatalf("%d-byte head: closed=%v served=%d, want served=%v", len(tc.head), closed, served, tc.served)
		}
	}
}

// FuzzParseRequest: the request-head parser never panics, and an
// accepted head has a method and a lower-cased header map.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"GET /x HTTP/1.1\r\nHost: media\r\nRange: bytes=0-5",
		"GET / HTTP/1.1", "", "GET", "GET /x", "\r\n\r\n", " / HTTP/1.1\r\n:",
		"GET /x HTTP/1.1\r\nNoColon\r\nA:B:C\r\n X : y ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, head string) {
		req, err := parseRequest(head)
		if err != nil {
			return
		}
		for k := range req.Headers {
			if k != strings.ToLower(k) {
				t.Fatalf("parseRequest(%q) kept header key %q", head, k)
			}
		}
	})
}

// FuzzParseResponse: the response-head parser never panics, and an
// accepted head has a header map and a non-negative Content-Length.
func FuzzParseResponse(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 42", "HTTP/1.1 206", "HTTP/1.1 ", "HTTP/1.1",
		"HTTP/1.1 abc OK", "SPDY/3 200 OK", "HTTP/1.1 200 OK\r\nContent-Length: xyz",
		"HTTP/1.1 200 OK\r\nContent-Length: -1", "", "HTTP/1.1 99999999999999999999 X",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, head string) {
		resp, err := parseResponse(head)
		if err != nil {
			return
		}
		if resp.Headers == nil || resp.ContentLength < 0 {
			t.Fatalf("parseResponse(%q) = %+v", head, resp)
		}
	})
}

// FuzzResolveRange: whatever the Range header and resource size, a
// satisfiable range lies inside the resource and is non-empty.
func FuzzResolveRange(f *testing.F) {
	for _, seed := range []struct {
		h    string
		size int64
	}{
		{"bytes=0-99", 100}, {"bytes=50-", 100}, {"bytes=-10", 100}, {"bytes=-200", 100},
		{"bytes=100-", 100}, {"bytes=5-2", 100}, {"bytes=-0", 100}, {"bytes=-1", 0},
		{"bytes=0-", 0}, {"bytes=-5", -3}, {"bytes=0-0", 1}, {"bytes=x-y", 10},
		{"bytes=0-9223372036854775807", 10}, {"bytes=+3-", 10}, {"bytes=-+3", 10},
	} {
		f.Add(seed.h, seed.size)
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		req := &Request{Headers: map[string]string{"range": h}}
		start, n, hasRange, ok := req.ResolveRange(size)
		if !hasRange {
			t.Fatalf("ResolveRange(%q, %d) missed the header", h, size)
		}
		if ok && (start < 0 || n < 1 || start > size-n) {
			t.Fatalf("ResolveRange(%q, %d) = start %d, n %d: outside the resource", h, size, start, n)
		}
	})
}
