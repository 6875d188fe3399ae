package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"snd/client"
	"snd/internal/runner"
	"snd/internal/store"
)

// listPage fetches one GET /v1/jobs page with the given query string.
func listPage(t *testing.T, ts *httptest.Server, query string) client.JobList {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/jobs%s: status %d: %s", query, resp.StatusCode, body)
	}
	var page client.JobList
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestListPaginationAndFilters(t *testing.T) {
	_, ts := newTestServer(t)

	// Five distinct jobs (distinct seeds), all finished so ordering and
	// status are stable.
	var ids []string
	for seed := 1; seed <= 5; seed++ {
		job, code := postJob(t, ts,
			fmt.Sprintf(`{"experiment":"overhead","params":{"Sizes":[60],"Seed":%d}}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		ids = append(ids, job.ID)
		waitDone(t, ts, job.ID)
	}

	// Page through with limit=2: every job exactly once, in a stable
	// order, terminated by an absent next_cursor.
	var paged []string
	cursor := ""
	pages := 0
	for {
		query := "?limit=2"
		if cursor != "" {
			query += "&cursor=" + cursor
		}
		page := listPage(t, ts, query)
		if len(page.Jobs) > 2 {
			t.Fatalf("page has %d jobs, limit was 2", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			paged = append(paged, j.ID)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(paged) != 5 {
		t.Fatalf("paged listing returned %d jobs, want 5: %v", len(paged), paged)
	}
	seen := map[string]bool{}
	for _, id := range paged {
		if seen[id] {
			t.Fatalf("job %s returned on two pages", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("job %s missing from paged listing", id)
		}
	}
	// A full unpaged listing matches the paged order.
	full := listPage(t, ts, "")
	if full.NextCursor != "" {
		t.Fatalf("full listing of 5 jobs has next_cursor %q", full.NextCursor)
	}
	for i, j := range full.Jobs {
		if j.ID != paged[i] {
			t.Fatalf("paged order diverges at %d: %s vs %s", i, paged[i], j.ID)
		}
	}

	// Filters: all five are done; no job is queued.
	if got := listPage(t, ts, "?status=done"); len(got.Jobs) != 5 {
		t.Fatalf("status=done returned %d jobs", len(got.Jobs))
	}
	if got := listPage(t, ts, "?status=queued"); len(got.Jobs) != 0 {
		t.Fatalf("status=queued returned %d jobs", len(got.Jobs))
	}
	if got := listPage(t, ts, "?exp=overhead"); len(got.Jobs) != 5 {
		t.Fatalf("exp=overhead returned %d jobs", len(got.Jobs))
	}
	if got := listPage(t, ts, "?exp=fig3"); len(got.Jobs) != 0 {
		t.Fatalf("exp=fig3 returned %d jobs", len(got.Jobs))
	}

	// Malformed query params are typed bad_query envelopes naming the field.
	for _, tc := range []struct{ query, field string }{
		{"?limit=bogus", "limit"},
		{"?limit=-1", "limit"},
		{"?status=sideways", "status"},
		{"?cursor=%21%21not-base64%21%21", "cursor"},
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error client.APIError }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != errBadQuery || e.Error.Field != tc.field {
			t.Fatalf("%s: status %d code %q field %q, want 400 %q %q",
				tc.query, resp.StatusCode, e.Error.Code, e.Error.Field, errBadQuery, tc.field)
		}
	}
}

// TestJobShapeStableFields pins the redesigned resource shape: the same
// created_at/started_at/finished_at/store keys on the submit response,
// the get, and the listing — and none of the pre-redesign names.
func TestJobShapeStableFields(t *testing.T) {
	_, ts := newTestServer(t)
	job, _ := postJob(t, ts, `{"experiment":"overhead","params":{"Sizes":[60],"Seed":77}}`)
	waitDone(t, ts, job.ID)

	fetch := func(path string) map[string]any {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	get := fetch("/v1/jobs/" + job.ID)
	listed := fetch("/v1/jobs")["jobs"].([]any)[0].(map[string]any)
	for name, shape := range map[string]map[string]any{"get": get, "list": listed} {
		for _, want := range []string{"id", "status", "created_at", "started_at", "finished_at", "store"} {
			if _, ok := shape[want]; !ok {
				t.Errorf("%s shape missing %q: %v", name, want, shape)
			}
		}
		for _, gone := range []string{"submitted", "started", "finished"} {
			if _, ok := shape[gone]; ok {
				t.Errorf("%s shape still carries deprecated field %q", name, gone)
			}
		}
	}
	if get["store"] != "mem" {
		t.Errorf("store = %v, want mem on a memory-cache server", get["store"])
	}
}

func newAuthedServer(t *testing.T) (*Keyring, *httptest.Server, func() string) {
	t.Helper()
	keys := NewKeyring()
	keys.Add("sekrit-alice", "alice", 2) // 2 req/s, burst 2
	keys.Add("sekrit-open", "open", 0)   // unmetered
	eng := runner.New(runner.Options{Workers: 2, Cache: store.NewMemStore()})
	_, mux := NewServer(eng, Config{Keys: keys})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	metrics := func() string {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	return keys, ts, metrics
}

func authedPost(t *testing.T, ts *httptest.Server, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAuthRequiredOnWrites(t *testing.T) {
	_, ts, metrics := newAuthedServer(t)
	const body = `{"experiment":"overhead","params":{"Sizes":[60],"Seed":1}}`

	// No key and a wrong key are typed 401 unauthorized envelopes.
	for _, key := range []string{"", "wrong"} {
		resp := authedPost(t, ts, key, body)
		var e struct{ Error client.APIError }
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized || e.Error.Code != errUnauthorized {
			t.Fatalf("key %q: status %d code %q, want 401 %q", key, resp.StatusCode, e.Error.Code, errUnauthorized)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatal("401 without WWW-Authenticate")
		}
	}
	// DELETE is also a write.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/whatever", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated DELETE: status %d, want 401", resp.StatusCode)
	}

	// Reads stay open.
	if page := listPage(t, ts, ""); len(page.Jobs) != 0 {
		t.Fatalf("unauthenticated list: %v", page.Jobs)
	}

	// A valid key admits the write, and the request is attributed to the
	// client in the per-tenant counter.
	resp = authedPost(t, ts, "sekrit-alice", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authed submit: status %d, want 202", resp.StatusCode)
	}
	if text := metrics(); !strings.Contains(text, `client="alice"`) {
		t.Errorf("metrics missing per-client attribution:\n%s", text)
	}
}

func TestRateLimiting(t *testing.T) {
	keys, ts, _ := newAuthedServer(t)
	// Freeze the keyring clock so the bucket refills only when we say so.
	now := time.Unix(1700000000, 0)
	keys.now = func() time.Time { return now }

	const body = `{"experiment":"overhead","params":{"Sizes":[60],"Seed":2}}`
	// alice has burst 2: two immediate requests pass, the third is a 429.
	for i := 0; i < 2; i++ {
		resp := authedPost(t, ts, "sekrit-alice", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := authedPost(t, ts, "sekrit-alice", body)
	var e struct{ Error client.APIError }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != errRateLimited {
		t.Fatalf("over-rate request: status %d code %q, want 429 %q", resp.StatusCode, e.Error.Code, errRateLimited)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Advancing past the refill admits the next request.
	now = now.Add(time.Second)
	resp = authedPost(t, ts, "sekrit-alice", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		t.Fatalf("request after refill: status %d", resp.StatusCode)
	}

	// An unmetered key never rate limits.
	for i := 0; i < 10; i++ {
		resp := authedPost(t, ts, "sekrit-open", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("unmetered key rate limited on request %d", i)
		}
	}
}

func TestLoadKeyring(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		f, err := os.CreateTemp(dir, "keys-*")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(content)
		f.Close()
		return f.Name()
	}
	k, err := LoadKeyring(write("# comment\n\nabc123:alice:2.5\ndef456:bob:0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if name, _, ok := k.authenticate("abc123"); !ok || name != "alice" {
		t.Fatalf("authenticate(abc123) = %q, %v", name, ok)
	}
	if name, _, ok := k.authenticate("def456"); !ok || name != "bob" {
		t.Fatalf("authenticate(def456) = %q, %v", name, ok)
	}
	if _, _, ok := k.authenticate("nope"); ok {
		t.Fatal("unknown key authenticated")
	}
	for _, bad := range []string{
		"",                       // empty keyring locks everyone out
		"justonefield\n",         // malformed line
		"a:alice:2\na:bob:2\n",   // duplicate key
		"a:alice:2\nb:alice:2\n", // duplicate name
		"a:alice:notanumber\n",   // bad rate
		"a:alice:-1\n",           // negative rate
	} {
		if _, err := LoadKeyring(write(bad)); err == nil {
			t.Errorf("LoadKeyring accepted %q", bad)
		}
	}
}
