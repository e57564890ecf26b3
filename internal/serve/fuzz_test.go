package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// fuzzHandler builds a fresh instrumented service and its handler, so every
// fuzz input starts from slot 0 of the same schedule.
func fuzzHandler(t *testing.T) http.Handler {
	s := testService(t)
	reg := telemetry.NewRegistry()
	s.Instrument(NewMetrics(reg, "serve"))
	return s.Handler(reg, nil)
}

// getState reads the State document through GET /state.
func getState(t *testing.T, h http.Handler) State {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /state = %d", rec.Code)
	}
	var st State
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /state: %v", err)
	}
	return st
}

// fuzzSeedRecords returns one well-formed SlotInput record and bad ones:
// the bodies http_test.go rejects, an overloaded slot, a NaN, a non-object
// and an empty document.
func fuzzSeedRecords(f *testing.F) (good []byte, bad []string) {
	line, err := json.Marshal(testSlots(f, 0, 1)[0])
	if err != nil {
		f.Fatal(err)
	}
	return line, []string{
		`{"lambda_rps": 10, "typo_field": 1}`,
		`{"lambda_rps": -5}`,
		`{"lambda_rps":1}{"lambda_rps":2}`,
		`{"lambda_rps":` + strings.Repeat(" ", maxDecideBody+16) + `1}`,
		`{"lambda_rps": 1e12}`,
		`{"lambda_rps": NaN}`,
		`[]`,
		``,
	}
}

// FuzzDecideBody posts arbitrary bodies to /decide. The handler must not
// panic, must answer 200, 400, 413 or 422, and a rejected body must leave
// the /state hash unchanged while an accepted one advances the slot.
func FuzzDecideBody(f *testing.F) {
	good, bad := fuzzSeedRecords(f)
	f.Add(good)
	for _, b := range bad {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		before := getState(t, h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body)))
		after := getState(t, h)
		switch rec.Code {
		case http.StatusOK:
			if after.Slot != before.Slot+1 {
				t.Fatalf("accepted /decide moved slot %d -> %d", before.Slot, after.Slot)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			if after.Hash != before.Hash || after.Slot != before.Slot {
				t.Fatalf("rejected /decide (%d) changed state %+v -> %+v", rec.Code, before, after)
			}
		default:
			t.Fatalf("POST /decide = %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// duplexRecorder is a ResponseRecorder that accepts /ingest's full-duplex
// request, so the stream decoder runs in-process, without a connection.
type duplexRecorder struct{ *httptest.ResponseRecorder }

func (duplexRecorder) EnableFullDuplex() error { return nil }

// FuzzIngestStream posts arbitrary NDJSON streams to /ingest. The handler
// must not panic and must answer 200; the response must be a run of
// decision records for consecutive slots, optionally ended by one error
// record, and the /state document must have advanced by exactly the
// decisions streamed, to the last decision's hash.
func FuzzIngestStream(f *testing.F) {
	good, bad := fuzzSeedRecords(f)
	nl := func(recs ...string) []byte { return []byte(strings.Join(recs, "\n") + "\n") }
	f.Add(nl(string(good), string(good), string(good)))
	for _, b := range bad {
		f.Add(nl(string(good), b, string(good)))
	}
	padded := string(good[:len(good)-1]) + strings.Repeat(" ", maxDecideBody-len(good)-1) + "}"
	f.Add(nl(string(good), padded, string(good)))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		before := getState(t, h)
		rec := duplexRecorder{httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /ingest = %d: %s", rec.Code, rec.Body.String())
		}
		var decisions []Decision
		sawError := false
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			if sawError {
				t.Fatalf("record after the error record: %s", sc.Text())
			}
			var line struct {
				Decision
				Error *string `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("record %d is not JSON: %v", len(decisions), err)
			}
			if line.Error != nil {
				sawError = true
				continue
			}
			if want := before.Slot + len(decisions); line.Slot != want {
				t.Fatalf("decision %d carries slot %d, want %d", len(decisions), line.Slot, want)
			}
			decisions = append(decisions, line.Decision)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		after := getState(t, h)
		if after.Slot != before.Slot+len(decisions) {
			t.Fatalf("state slot %d after %d decisions from slot %d", after.Slot, len(decisions), before.Slot)
		}
		wantHash := before.Hash
		if len(decisions) > 0 {
			wantHash = decisions[len(decisions)-1].Hash
		}
		if after.Hash != wantHash {
			t.Fatalf("state hash %s, want %s", after.Hash, wantHash)
		}
	})
}
