package main

// The closed-loop HTTP client: one process, one keep-alive connection,
// each request sent only after the previous reply has been read, because
// fault monitors and routers wait for each answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. elapsed runs from just
// before the request is written to just after the last reply byte is
// read; the returned body is valid until the next call.
func (c *client) do(method, path string, body []byte) (status int, reply []byte, elapsed time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.body.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	_, err = c.body.ReadFrom(resp.Body)
	elapsed = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("read reply: %w", err)
	}
	return resp.StatusCode, c.body.Bytes(), elapsed, nil
}

// Wire formats, written the way a client would hand-write them.

func meshPath(ms meshSpec) string { return "/v1/meshes/" + ms.name }

func createBody(ms meshSpec) []byte {
	b := fmt.Sprintf(`{"name":%q,"width":%d,"height":%d`, ms.name, ms.w, ms.h)
	if ms.d > 0 {
		b += `,"depth":` + strconv.Itoa(ms.d)
	}
	return []byte(b + "}")
}

func appendEvent(b []byte, ms meshSpec, add bool, node int) []byte {
	x, y, z := ms.coord(node)
	if add {
		b = append(b, `{"op":"add","x":`...)
	} else {
		b = append(b, `{"op":"clear","x":`...)
	}
	b = strconv.AppendInt(b, int64(x), 10)
	b = append(b, `,"y":`...)
	b = strconv.AppendInt(b, int64(y), 10)
	if ms.d > 0 {
		b = append(b, `,"z":`...)
		b = strconv.AppendInt(b, int64(z), 10)
	}
	return append(b, '}')
}

// eventsBody is a JSON array of events: adds (or clears) of nodes.
func eventsBody(ms meshSpec, add bool, nodes ...int) []byte {
	b := []byte{'['}
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEvent(b, ms, add, n)
	}
	return append(b, ']')
}

func statusPath(ms meshSpec, node int) string {
	x, y, z := ms.coord(node)
	p := meshPath(ms) + "/status?x=" + strconv.Itoa(x) + "&y=" + strconv.Itoa(y)
	if ms.d > 0 {
		p += "&z=" + strconv.Itoa(z)
	}
	return p
}

func routeBody(ms meshSpec, src, dst int) []byte {
	sx, sy, _ := ms.coord(src)
	dx, dy, _ := ms.coord(dst)
	return []byte(fmt.Sprintf(`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, sx, sy, dx, dy))
}

// request renders op o as an HTTP request.
func request(w *workload, o op) (method, path string, body []byte) {
	ms := w.meshes[o.mesh]
	switch o.kind {
	case opAdd, opPlaneAdd:
		return http.MethodPost, meshPath(ms) + "/events", eventsBody(ms, true, o.node)
	case opClear, opPlaneClear:
		return http.MethodPost, meshPath(ms) + "/events", eventsBody(ms, false, o.node)
	case opStatus:
		return http.MethodGet, statusPath(ms, o.node), nil
	case opPolygons:
		return http.MethodGet, meshPath(ms) + "/polygons", nil
	case opRoute:
		return http.MethodPost, meshPath(ms) + "/route", routeBody(ms, o.node, o.dst)
	}
	panic(fmt.Sprintf("request: unknown op kind %d", o.kind))
}

// tally counts attempted requests and failures. A failure is a transport
// error or a status the request type never legitimately answers with; a
// route's 409/422 is an answer (the oracle check confirms it later), not a
// failure.
type tally struct {
	attempted, failed int
	firstFailure      string
}

// note records one request and reports whether it produced an answer.
func (t *tally) note(what string, status int, err error, accepted ...int) bool {
	t.attempted++
	if err == nil {
		for _, a := range accepted {
			if status == a {
				return true
			}
		}
		err = fmt.Errorf("unexpected status %d", status)
	}
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = what + ": " + err.Error()
	}
	return false
}

// answered is the number of requests that produced an answer.
func (t *tally) answered() int { return t.attempted - t.failed }

func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// routeRecord keeps a route reply for the oracle check.
type routeRecord struct {
	o        op
	status   int
	length   int
	abnormal int
	path     []int // node indices
}

type statusRecord struct {
	o     op
	class string
}

// Every route answered 409/422 is checked, plus one in routeSampleEvery
// of the others and one in statusSampleEvery status reads.
const (
	routeSampleEvery  = 16
	statusSampleEvery = 64
)

// phase is what one measured phase observed.
type phase struct {
	lat                 [numOpKinds]samples
	routeHit, routeMiss samples
	tally               tally
	routes              []routeRecord
	statuses            []statusRecord
	mismatches          []string
	ops                 []op
	elapsed             time.Duration
	nRoutes, nStatus    int
}

func (p *phase) mismatch(format string, args ...any) {
	if len(p.mismatches) < 20 {
		p.mismatches = append(p.mismatches, fmt.Sprintf(format, args...))
	}
}

type eventsReply struct {
	Applied int `json:"applied"`
	Faults  int `json:"faults"`
}

type xy struct {
	X int `json:"x"`
	Y int `json:"y"`
}

type routeReply struct {
	CacheHit     bool `json:"cache_hit"`
	Length       int  `json:"length"`
	AbnormalHops int  `json:"abnormal_hops"`
	Path         []xy `json:"path"`
}

// run drives the closed loop for dur and checks every reply it can check
// on the spot; route and status samples are kept for the oracle.
func (p *phase) run(c *client, w *workload, seq *sequence, dur time.Duration) {
	start := time.Now()
	for time.Since(start) < dur {
		o := seq.next()
		p.ops = append(p.ops, o)
		method, path, body := request(w, o)
		status, reply, elapsed, err := c.do(method, path, body)
		what := o.kind.String() + " " + path
		switch o.kind {
		case opAdd, opClear, opPlaneAdd, opPlaneClear:
			if !p.tally.note(what, status, err, http.StatusOK) {
				continue
			}
			var r eventsReply
			if err := json.Unmarshal(reply, &r); err != nil || r.Applied != 1 || r.Faults != o.faults {
				p.mismatch("%s: reply %s, want applied=1 faults=%d", what, reply, o.faults)
			}
		case opStatus:
			if !p.tally.note(what, status, err, http.StatusOK) {
				continue
			}
			if p.nStatus%statusSampleEvery == 0 {
				var r struct {
					Class string `json:"class"`
				}
				if err := json.Unmarshal(reply, &r); err != nil {
					p.mismatch("%s: reply %s: %v", what, reply, err)
				}
				p.statuses = append(p.statuses, statusRecord{o: o, class: r.Class})
			}
			p.nStatus++
		case opPolygons:
			if !p.tally.note(what, status, err, http.StatusOK) {
				continue
			}
			if !bytes.HasPrefix(reply, []byte(`{"version":`)) {
				p.mismatch("%s: reply does not start with a version: %.80s", what, reply)
			}
		case opRoute:
			if !p.tally.note(what, status, err, http.StatusOK, http.StatusConflict, http.StatusUnprocessableEntity) {
				continue
			}
			p.nRoutes++
			if status != http.StatusOK {
				p.routes = append(p.routes, routeRecord{o: o, status: status})
				continue
			}
			var r routeReply
			if err := json.Unmarshal(reply, &r); err != nil {
				p.mismatch("%s: reply %s: %v", what, reply, err)
				continue
			}
			if r.CacheHit {
				p.routeHit = append(p.routeHit, float64(elapsed))
			} else {
				p.routeMiss = append(p.routeMiss, float64(elapsed))
			}
			if p.nRoutes%routeSampleEvery == 0 {
				rec := routeRecord{o: o, status: status, length: r.Length, abnormal: r.AbnormalHops}
				for _, c := range r.Path {
					rec.path = append(rec.path, w.meshes[o.mesh].index(c.X, c.Y, 0))
				}
				p.routes = append(p.routes, rec)
			}
		}
		p.lat[o.kind] = append(p.lat[o.kind], float64(elapsed))
	}
	p.elapsed = time.Since(start)
}
