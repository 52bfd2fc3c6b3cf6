package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cqa"
)

// FuzzServeBodies posts arbitrary bytes to the two endpoints that read
// a client's body piece by piece: as a batch stream against a fixed
// instance, and as a mutate body against a second instance, so the
// batch instance never changes. A batch answers 200 with one decodable
// response per request line (neither blank nor a # comment), indexed
// 1..k in order, each carrying either an error or a decision equal to
// the library's. Only a line longer than MaxLine ends the stream early,
// with one unindexed error as the last line. A mutate answers 200 or
// 400, never 5xx.
func FuzzServeBodies(f *testing.F) {
	const maxLine = 256
	for _, s := range []string{
		"RX\nRRX\nRXRYRY\nARRX\n",
		`{"query":"RRX","timeout_ms":0}` + "\n" +
			`{"query":"ARRX","timeout_ms":-5}` + "\n" +
			`{"query":"RX","timeout_ms":9223372036854775807}`,
		`{"query":"RX"` + "\n" + `{"query":7}` + "\n{}\n[]\nRX",
		"RX\r\nRRX\r\n\r\n",
		"# comment\n\n   \nRX\n  #RRX\n",
		"A b\nAb\n",
		strings.Repeat("R", maxQuerySymbols) + "X\nRX\n",
		"rx\nR X\nR.X,Y\n",
		strings.Repeat("R", maxLine) + "\nRX\n",
		`{"add":["R(a,c)","X(z,a)"],"remove":["R(a,b)"]}`,
		`{"add":["R(a,"],"remove":[]}`,
	} {
		f.Add(s)
	}

	s := New(Config{RouterWorkers: 2, Window: 4, MaxLine: maxLine})
	f.Cleanup(s.Drain)
	h := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, name := range []string{"batch", "mutate"} {
		if rec := do("POST", "/instances/"+name, serveFacts()); rec.Code != http.StatusCreated {
			f.Fatalf("register %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	ref, err := cqa.ParseFacts(serveFacts())
	if err != nil {
		f.Fatal(err)
	}
	refEngine := cqa.NewEngine(cqa.EngineConfig{})

	f.Fuzz(func(t *testing.T, body string) {
		// What the response must hold: k request lines before the first
		// line that, with its terminator, does not fit in MaxLine.
		k, tooLong := 0, false
		for _, line := range strings.Split(body, "\n") {
			if len(line) >= maxLine {
				tooLong = true
				break
			}
			if l := strings.TrimSpace(line); l != "" && !strings.HasPrefix(l, "#") {
				k++
			}
		}

		rec := do("POST", "/instances/batch/batch", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %q: status %d", body, rec.Code)
		}
		out := rec.Body.String()
		if out != "" && !strings.HasSuffix(out, "\n") {
			t.Fatalf("batch %q: unterminated response %q", body, out)
		}
		lines := strings.Split(out, "\n")
		var resps []queryResponse
		for _, line := range lines[:len(lines)-1] {
			var r queryResponse
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("batch %q: response line %q: %v", body, line, err)
			}
			resps = append(resps, r)
		}
		if tooLong {
			if n := len(resps); n == 0 || resps[n-1].Index != 0 || resps[n-1].Error == "" {
				t.Fatalf("batch %q: a line over MaxLine must end the stream with an unindexed error: %+v", body, resps)
			}
			resps = resps[:len(resps)-1]
		}
		if len(resps) != k {
			t.Fatalf("batch %q: %d indexed responses for %d request lines: %+v", body, len(resps), k, resps)
		}
		for i, r := range resps {
			if r.Index != i+1 {
				t.Fatalf("batch %q: response %d has index %d", body, i+1, r.Index)
			}
			if (r.Error == "") == (r.Certain == nil) {
				t.Fatalf("batch %q: response %d must carry exactly one of error and certain: %+v", body, i+1, r)
			}
			if r.Certain == nil {
				continue
			}
			q, err := cqa.ParseQuery(r.Query)
			if err != nil {
				t.Fatalf("batch %q: decided query %q does not parse: %v", body, r.Query, err)
			}
			if want := refEngine.Certain(q, ref).Certain; *r.Certain != want {
				t.Fatalf("batch %q: %q decided %v, want %v", body, r.Query, *r.Certain, want)
			}
		}

		rec = do("POST", "/instances/mutate/mutate", body)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("mutate %q: status %d %s", body, rec.Code, rec.Body)
		}
		// Mutations accumulate across inputs; start the instance over
		// before it grows enough to slow the fuzzer down.
		if info, err := s.reg.Info("mutate"); err != nil || info.Facts > 512 {
			do("DELETE", "/instances/mutate", "")
			if rec := do("POST", "/instances/mutate", serveFacts()); rec.Code != http.StatusCreated {
				t.Fatalf("re-register: %d %s", rec.Code, rec.Body)
			}
		}
	})
}
