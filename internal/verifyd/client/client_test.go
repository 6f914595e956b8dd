package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryOn5xxThenSuccess(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, `{"error":{"code":"internal","message":"flaky"}}`)
			return
		}
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(5), WithBackoff(time.Millisecond, 4*time.Millisecond))
	job, err := c.Submit(context.Background(), JobRequest{ADL: "system x {}"})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-1" || calls.Load() != 3 {
		t.Fatalf("job %+v after %d calls", job, calls.Load())
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"invalid_argument","message":"bad ADL","line":2,"col":5}}`)
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(5), WithBackoff(time.Millisecond, 4*time.Millisecond))
	_, err := c.Submit(context.Background(), JobRequest{ADL: "junk"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if ae.Status != 400 || ae.Code != "invalid_argument" || ae.Line != 2 || ae.Col != 5 {
		t.Fatalf("APIError %+v", ae)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"down"}}`)
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond))
	_, err := c.Job(context.Background(), "job-1")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 500 {
		t.Fatalf("want 500 *APIError, got %v", err)
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Fatalf("got %d calls, want 3", calls.Load())
	}
}

func TestRetryOnConnectionError(t *testing.T) {
	// A server that dies after the first (failed) response: the client
	// must survive the dead address until it gives up.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := hs.URL
	hs.Close()

	const seed = 7
	opts := []Option{WithRetries(2), WithBackoff(time.Millisecond, 2*time.Millisecond), WithJitterSeed(seed)}
	// An identically seeded twin draws the two jittered delays the
	// client is about to sleep: equal jitter puts them in [0.5,1] ms and
	// [1,2] ms, so the un-jittered 3 ms is not a lower bound.
	twin := New(addr, opts...)
	want := twin.jitter(time.Millisecond) + twin.jitter(2*time.Millisecond)
	c := New(addr, opts...)
	start := time.Now()
	_, err := c.Job(context.Background(), "job-1")
	if err == nil {
		t.Fatal("want connection error")
	}
	var ae *APIError
	if errors.As(err, &ae) {
		t.Fatalf("connection failure surfaced as APIError: %v", ae)
	}
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("no backoff observed: %v elapsed, the seeded delays sum to %v", elapsed, want)
	}
}

func TestBackoffHonorsContext(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(10), WithBackoff(time.Hour, time.Hour))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Job(ctx, "job-1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from backoff sleep, got %v", err)
	}
}

func TestJobsPagination(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Get("status") != "done" || q.Get("limit") != "2" {
			t.Errorf("query = %v", q)
		}
		switch q.Get("cursor") {
		case "":
			fmt.Fprint(w, `{"jobs":[{"id":"job-1"},{"id":"job-2"}],"next_cursor":"2"}`)
		case "2":
			fmt.Fprint(w, `{"jobs":[{"id":"job-3"}]}`)
		default:
			t.Errorf("cursor = %q", q.Get("cursor"))
		}
	}))
	defer hs.Close()

	c := New(hs.URL)
	var ids []string
	cursor := ""
	for {
		page, err := c.Jobs(context.Background(), "done", cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			ids = append(ids, j.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(ids) != 3 || ids[0] != "job-1" || ids[2] != "job-3" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStreamSweepReconnectSkipsSeenCells(t *testing.T) {
	var conns atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(map[string]any{"cell": map[string]any{"index": 0, "connector": "a"}})
		if n == 1 {
			enc.Encode(map[string]any{"cell": map[string]any{"index": 1, "connector": "b"}})
			// Drop the connection mid-stream: the client must reconnect
			// and not replay cells 0 and 1 to the callback.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		enc.Encode(map[string]any{"cell": map[string]any{"index": 1, "connector": "b"}})
		enc.Encode(map[string]any{"cell": map[string]any{"index": 2, "connector": "c"}})
		enc.Encode(map[string]any{"sweep": map[string]any{"id": "sweep-1", "state": "done"}})
	}))
	defer hs.Close()

	c := New(hs.URL, WithRetries(3), WithBackoff(time.Millisecond, 4*time.Millisecond))
	var got []int
	st, err := c.StreamSweep(context.Background(), "sweep-1", func(cell SweepCell) {
		got = append(got, cell.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("final status %+v", st)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("cells seen = %v, want [0 1 2]", got)
	}
	if conns.Load() != 2 {
		t.Fatalf("connections = %d, want 2", conns.Load())
	}
}

func TestStreamSweepNotFound(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such sweep"}}`)
	}))
	defer hs.Close()
	c := New(hs.URL, WithBackoff(time.Millisecond, time.Millisecond))
	_, err := c.StreamSweep(context.Background(), "nope", nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("want not_found APIError, got %v", err)
	}
}
