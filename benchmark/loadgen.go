package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A client is one keep-alive HTTP/1.1 connection that sends pre-rendered
// requests and reads each reply into a buffer it reuses, so the generator
// allocates nothing per request and its own GC stays out of the timings.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial: %w", err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the status and body of the reply. The
// body is valid until the next call.
func (c *client) do(wire []byte) (int, []byte, error) {
	if _, err := c.conn.Write(wire); err != nil {
		return 0, nil, fmt.Errorf("loadgen: write: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("loadgen: status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("loadgen: short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("loadgen: status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("loadgen: header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("loadgen: content-length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body.Reset()
	switch {
	case chunked:
		if _, err := c.body.ReadFrom(httputil.NewChunkedReader(c.br)); err != nil {
			return 0, nil, fmt.Errorf("loadgen: chunked body: %w", err)
		}
		// The chunked reader stops after the last chunk; the blank line
		// that ends the (empty) trailer section is still unread.
		if _, err := c.br.ReadSlice('\n'); err != nil {
			return 0, nil, fmt.Errorf("loadgen: chunked trailer: %w", err)
		}
	case length >= 0:
		if _, err := io.CopyN(&c.body, c.br, int64(length)); err != nil {
			return 0, nil, fmt.Errorf("loadgen: body: %w", err)
		}
	default:
		return 0, nil, errors.New("loadgen: reply has neither a length nor chunks")
	}
	return status, c.body.Bytes(), nil
}

// reply is the part of a query response the generator checks.
type reply struct {
	count      int
	generation uint64
	rows       []byte // the encoded rows array
}

var (
	rowsKey  = []byte(`"rows":`)
	countKey = []byte(`,"count":`)
	genKey   = []byte(`"generation":`)
)

// parseReply reads count, generation and the rows array off a /v1/query
// body without decoding it. The scalar fields follow the rows, so they are
// searched from the end, where no row value can shadow them.
func parseReply(body []byte) (reply, error) {
	var r reply
	ci := bytes.LastIndex(body, countKey)
	gi := bytes.LastIndex(body, genKey)
	ri := bytes.Index(body, rowsKey)
	if ci < 0 || gi < ci || ri < 0 || ri > ci {
		return r, fmt.Errorf("loadgen: not a query response: %.80q", body)
	}
	r.rows = body[ri+len(rowsKey) : ci]
	r.count = atoiPrefix(body[ci+len(countKey):])
	r.generation = uint64(atoiPrefix(body[gi+len(genKey):]))
	return r, nil
}

func atoiPrefix(b []byte) int {
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

// waitUntil returns at due or as soon after as the scheduler allows.
// time.Sleep parks the goroutine on the runtime's timers, which an idle
// process polls with millisecond resolution: at a few thousand requests a
// second that overshoot is most of the gap between two of them. So the
// thread itself sleeps in the kernel until shortly before the due time, and
// yields the processor for the rest.
func waitUntil(due time.Time) {
	const spin = 80 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal, the loop below covers the rest
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// sample is one completed request as the generator saw it.
type sample struct {
	latency  time.Duration // open loop: from the due time; closed loop: from the send
	lateness time.Duration // open loop: how long after the due time it was sent
	busy     time.Duration // send to last byte of the reply
	done     time.Time
	gen      uint64 // generation the reply was read from
	conn     int
}

// phaseResult is what one load phase measured. A request that got no reply,
// a non-200 reply or a wrong answer is in failed and has no sample.
type phaseResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

// A phase drives the stream, from position first, through conns. With
// rate > 0 it is an open loop: request i is due at start + i/rate whichever
// connection is free to take it, and latency runs from the due time, so a
// stall is charged to every request it delays. With rate == 0 it is a
// closed loop: every connection sends its next request when the previous
// reply has arrived. The phase ends after window, or after limit requests
// when limit > 0.
type phase struct {
	ctx    context.Context // cancelled to end the phase early
	conns  []*client
	stream *stream
	first  int
	rate   float64
	window time.Duration
	limit  int
	// rowsEvery is how often a reply has its rows compared with the
	// oracle's, not just counted: every reply at 1, none at 0.
	rowsEvery int
	// follow, when set, sees the generation of every good reply and may
	// return a request to send next on the same connection, outside the
	// schedule. Its row count is checked; it leaves no sample.
	follow func(gen uint64) *request
	// until, when set, keeps a closed loop going past its window until it
	// returns true: what the phase waits to see may take longer on a slow
	// machine, and is no failure for that.
	until func() bool
}

func (p phase) run() phaseResult {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  phaseResult
	)
	start := time.Now()
	end := start.Add(p.window)
	var interval time.Duration
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	for ci, c := range p.conns {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			local := phaseResult{samples: make([]sample, 0, 1<<14)}
			fail := func(err error) {
				local.failed++
				if local.firstErr == nil {
					local.firstErr = err
				}
			}
			for {
				i := int(next.Add(1) - 1)
				if p.limit > 0 && i >= p.limit || p.ctx.Err() != nil {
					break
				}
				var due time.Time
				if p.rate > 0 {
					due = start.Add(time.Duration(i) * interval)
					if !due.Before(end) {
						break
					}
					waitUntil(due)
				} else if !time.Now().Before(end) && (p.until == nil || p.until()) {
					break
				}
				at := p.first + i
				req := &p.stream.reqs[p.stream.order[at%len(p.stream.order)]]
				local.attempted++
				sent := time.Now()
				status, body, err := c.do(req.wire)
				done := time.Now()
				var gen uint64
				if err == nil {
					gen, err = checkAnswer(req, status, body, p.rowsEvery > 0 && at%p.rowsEvery == 0)
				}
				if err != nil {
					fail(err)
					if status == 0 {
						break // the connection is no longer usable
					}
					continue
				}
				sm := sample{busy: done.Sub(sent), done: done, gen: gen, conn: ci}
				if p.rate > 0 {
					sm.latency, sm.lateness = done.Sub(due), sent.Sub(due)
				} else {
					sm.latency = sm.busy
				}
				local.samples = append(local.samples, sm)
				if p.follow == nil {
					continue
				}
				if extra := p.follow(gen); extra != nil {
					local.attempted++
					status, body, err := c.do(extra.wire)
					if err == nil {
						_, err = checkAnswer(extra, status, body, false)
					}
					if err != nil {
						fail(err)
					}
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local.samples...)
			res.attempted += local.attempted
			res.failed += local.failed
			if res.firstErr == nil {
				res.firstErr = local.firstErr
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
