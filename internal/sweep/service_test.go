package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs"
	"pnp/internal/verifyd"
)

func newTestService(t *testing.T) (*Service, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := verifyd.NewServer(verifyd.Config{Workers: 2, Registry: reg})
	sv := NewService(Local(srv), reg)
	hs := httptest.NewServer(verifyd.NewHandler(verifyd.Routes(srv, sv.Routes()...)))
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
		sv.Wait()
	})
	return sv, hs, reg
}

func postSweep(t *testing.T, hs *httptest.Server, ws api.SweepSpec) api.SweepStatus {
	t.Helper()
	body, _ := json.Marshal(ws)
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d", resp.StatusCode)
	}
	var st api.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitSweep(t *testing.T, hs *httptest.Server, id string) api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(hs.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.SweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return api.SweepStatus{}
}

func pingWire(msgs int) api.SweepSpec {
	spec := pingSpec(msgs)
	return api.SweepSpec{
		Name:       spec.Name,
		Base:       spec.Base,
		Components: spec.Components,
		Connector:  "pipe",
		Channels:   []string{"fifo(1)", "single-slot"},
	}
}

func TestServiceSweepLifecycle(t *testing.T) {
	_, hs, _ := newTestService(t)
	st := postSweep(t, hs, pingWire(1))
	if st.ID == "" || st.Total != 2 || st.State != "running" {
		t.Fatalf("submit status: %+v", st)
	}
	final := waitSweep(t, hs, st.ID)
	if final.Result == nil || final.Err != "" {
		t.Fatalf("final status: %+v", final)
	}
	if final.Result.Total != 2 || len(final.Result.Cells) != 2 {
		t.Fatalf("result: %+v", final.Result)
	}
	if final.Done != 2 {
		t.Fatalf("done_cells = %d, want 2", final.Done)
	}

	// The list endpoint shows it without the (large) result.
	resp, err := http.Get(hs.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []api.SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != st.ID || list.Sweeps[0].Result != nil {
		t.Fatalf("list: %+v", list)
	}
}

func TestServiceSweepPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix preset is expensive; run without -short")
	}
	_, hs, reg := newTestService(t)
	st := postSweep(t, hs, api.SweepSpec{Preset: "matrix", Msgs: 1, BufSize: 1})
	if st.Total != 90 {
		t.Fatalf("matrix preset total = %d, want 90", st.Total)
	}
	final := waitSweep(t, hs, st.ID)
	if final.Result == nil {
		t.Fatalf("no result: %+v", final)
	}
	if final.Result.DedupHits != 40 {
		t.Fatalf("DedupHits = %d, want 40 (under-lossy companions)", final.Result.DedupHits)
	}
	if got := reg.Counter("sweep_cache_hits_total").Value(); got < 40 {
		t.Fatalf("sweep_cache_hits_total = %d, want >= 40", got)
	}
}

func TestServiceStream(t *testing.T) {
	_, hs, _ := newTestService(t)
	st := postSweep(t, hs, pingWire(1))

	resp, err := http.Get(hs.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var cells []api.SweepCell
	var finalSt *api.SweepStatus
	for sc.Scan() {
		var line api.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Cell != nil:
			if finalSt != nil {
				t.Fatal("cell line after the sweep line")
			}
			cells = append(cells, *line.Cell)
		case line.Sweep != nil:
			finalSt = line.Sweep
		default:
			t.Fatalf("empty NDJSON line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	if finalSt == nil || finalSt.State != "done" || finalSt.Result == nil {
		t.Fatalf("final stream line: %+v", finalSt)
	}
}

func TestServiceErrorEnvelopes(t *testing.T) {
	_, hs, _ := newTestService(t)
	check := func(method, path, body string, wantStatus int, wantCode string) {
		t.Helper()
		req, _ := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
		var eb api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s %s: bad envelope: %v", method, path, err)
		}
		if eb.Error.Code != wantCode || eb.Error.Message == "" {
			t.Fatalf("%s %s: envelope %+v, want code %q", method, path, eb, wantCode)
		}
	}
	check("POST", "/v1/sweeps", "{not json", http.StatusBadRequest, verifyd.CodeInvalidArgument)
	check("POST", "/v1/sweeps", `{"preset":"nosuch"}`, http.StatusBadRequest, verifyd.CodeInvalidArgument)
	check("POST", "/v1/sweeps", `{"base":"system x {\n}"}`, http.StatusBadRequest, verifyd.CodeInvalidArgument)
	check("GET", "/v1/sweeps/nope", "", http.StatusNotFound, verifyd.CodeNotFound)
	check("GET", "/v1/sweeps/nope/stream", "", http.StatusNotFound, verifyd.CodeNotFound)
	// Unknown routes fall through to the base handler's enveloped 404.
	check("GET", "/v1/nope", "", http.StatusNotFound, verifyd.CodeNotFound)
	// A spec whose first cell fails composition is rejected at submit.
	bad := pingWire(1)
	bad.Components = map[string]string{}
	body, _ := json.Marshal(bad)
	check("POST", "/v1/sweeps", string(body), http.StatusBadRequest, verifyd.CodeInvalidArgument)
}

func TestWireSpecCompileErrors(t *testing.T) {
	for _, ws := range []api.SweepSpec{
		{Sends: []string{"warp-drive"}},
		{Channels: []string{"fifo("}},
		{Recvs: []string{"psychic"}},
		{Preset: "nosuch"},
	} {
		if _, err := Compile(ws); err == nil {
			t.Fatalf("Compile(%+v): want error", ws)
		}
	}
	ws := api.SweepSpec{Preset: "matrix", Msgs: 2, BufSize: 1, Name: "mine", TimeoutMS: 500}
	spec, err := Compile(ws)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "mine" || spec.Timeout != 500*time.Millisecond || len(spec.Sends) != 5 {
		t.Fatalf("compiled preset: %+v", spec)
	}
	if !strings.Contains(spec.Base, fmt.Sprintf("got == %d", 2)) {
		t.Fatalf("preset base does not encode msgs: %s", spec.Base)
	}
}
