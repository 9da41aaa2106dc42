package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postRaw posts a raw body and returns the status code and exact body.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestSubmitStrictDecodingGoldenBodies pins the exact 400 bodies strict
// decoding produces — these are API surface clients script against, so a
// reworded error is a breaking change this test makes deliberate.
func TestSubmitStrictDecodingGoldenBodies(t *testing.T) {
	_, ts := harness(t, Config{Workers: 1, QueueDepth: 2})

	cases := []struct {
		name, body, want string
	}{
		{
			name: "unknown field",
			body: `{"mode":"minwidth","circuit":"busc","circiut":"typo"}`,
			want: "{\n  \"error\": \"json: unknown field \\\"circiut\\\"\"\n}\n",
		},
		{
			name: "empty body",
			body: "",
			want: "{\n  \"error\": \"empty request body\"\n}\n",
		},
		{
			name: "trailing data",
			body: `{"mode":"minwidth","circuit":"busc"} {"extra":true}`,
			want: "{\n  \"error\": \"trailing data after JSON body\"\n}\n",
		},
		{
			name: "pin index out of range",
			body: `{"mode":"route","width":4,"netlist":{"name":"bad","series":"4000","cols":4,"rows":4,` +
				`"nets":[{"id":0,"pins":["0,0,N,99","1,1,S,0"]}]}}`,
			want: "{\n  \"error\": \"circuits: net 0: pin \\\"0,0,N,99\\\" index out of range: a block has 3 pins per side\"\n}\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, ts.URL+"/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400 (body %s)", code, body)
			}
			if body != tc.want {
				t.Fatalf("golden body mismatch:\ngot  %q\nwant %q", body, tc.want)
			}
		})
	}
}

// TestListFilters exercises GET /jobs?limit=&state=: valid filters bound
// the listing, invalid ones are 400s with pinned bodies.
func TestListFilters(t *testing.T) {
	svc, ts := harness(t, Config{Workers: 1, QueueDepth: 8})

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := svc.Submit(&SubmitRequest{Mode: ModeMinWidth, Circuit: "busc", Seed: 1, Options: minwidthOpts})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if pollUntilTerminal(t, ts.URL, id, 2*time.Minute).State != StateDone {
			t.Fatalf("job %s did not finish", id)
		}
	}

	var all []Status
	if code := getJSON(t, ts.URL+"/jobs", &all); code != http.StatusOK || len(all) != 3 {
		t.Fatalf("unfiltered list: HTTP %d, %d jobs", code, len(all))
	}

	var limited []Status
	if code := getJSON(t, ts.URL+"/jobs?limit=2", &limited); code != http.StatusOK {
		t.Fatalf("limit=2: HTTP %d", code)
	}
	if len(limited) != 2 || limited[0].ID != ids[1] || limited[1].ID != ids[2] {
		t.Fatalf("limit=2 kept %v, want the newest two %v in order", limited, ids[1:])
	}

	var done []Status
	if code := getJSON(t, ts.URL+"/jobs?state=done", &done); code != http.StatusOK || len(done) != 3 {
		t.Fatalf("state=done: HTTP %d, %d jobs", code, len(done))
	}
	var failed []Status
	if code := getJSON(t, ts.URL+"/jobs?state=failed", &failed); code != http.StatusOK || len(failed) != 0 {
		t.Fatalf("state=failed: HTTP %d, %d jobs, want empty", code, len(failed))
	}

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(ts.URL + "/jobs?limit=-1"); code != http.StatusBadRequest ||
		body != "{\n  \"error\": \"limit must be a non-negative integer (got \\\"-1\\\")\"\n}\n" {
		t.Fatalf("limit=-1: HTTP %d body %q", code, body)
	}
	if code, body := get(ts.URL + "/jobs?limit=ten"); code != http.StatusBadRequest || !strings.Contains(body, `\"ten\"`) {
		t.Fatalf("limit=ten: HTTP %d body %q", code, body)
	}
	if code, body := get(ts.URL + "/jobs?state=finished"); code != http.StatusBadRequest ||
		body != "{\n  \"error\": \"state must be one of queued, running, done, failed, canceled (got \\\"finished\\\")\"\n}\n" {
		t.Fatalf("state=finished: HTTP %d body %q", code, body)
	}
}
