package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzSubmission feeds arbitrary bytes to the POST /campaigns body
// decoder, behind the same size bound handleSubmit puts on it. The
// decoder must never panic, and a body it accepts must survive a JSON
// round trip: re-encoding the submission and decoding that again gives
// the same submission, so what a client sent is what the daemon
// journals in the campaign's spec.
func FuzzSubmission(f *testing.F) {
	full, err := json.Marshal(Submission{Tenant: "acme", Subject: "cjson", Seed: -7,
		MaxExecs: 6000, Mine: true, Shim: []string{"pshim", "-subject", "cjson"}, SnapEvery: 500})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"subject":"expr"}`))
	// The retired workers field still decodes (and is ignored).
	f.Add([]byte(`{"tenant":"acme","subject":"expr","seed":3,"execs":3000,"workers":4,"snap_every":1000}`))
	f.Add([]byte(`{"subject":"expr","shim":[]}`))
	f.Add([]byte(`{"subject":"expr","shim":null,"mine":false}`))
	f.Add([]byte(`{"subject":"expr"} trailing`))
	f.Add([]byte(`{"subject":"expr"} {"subject":"mjs"} garbage`))
	f.Add([]byte(`{"subject":"expr","state":"done"}`)) // a spec field: unknown here
	f.Add([]byte(`{"subject":""}`))
	f.Add([]byte(`{"subject":"\ud800é<&>"}`))
	f.Add([]byte(`{"subject":"expr","execs":1e3}`))
	f.Add([]byte(`{"subject":"expr","seed":9223372036854775808}`))
	f.Add([]byte(`null`))
	f.Add(full[:len(full)/2])

	decode := func(body []byte) (Submission, error) {
		return decodeSubmission(http.MaxBytesReader(httptest.NewRecorder(),
			io.NopCloser(bytes.NewReader(body)), maxSubmission))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sub, err := decode(body)
		if err != nil {
			return // rejected cleanly
		}
		if sub.Subject == "" {
			t.Fatalf("accepted a submission without a subject: %q", body)
		}
		again, err := json.Marshal(sub)
		if err != nil {
			t.Fatalf("re-encoding accepted submission %+v: %v", sub, err)
		}
		back, err := decode(again)
		if err != nil {
			t.Fatalf("re-encoded submission %s does not decode: %v", again, err)
		}
		// An empty shim argv and an absent one mean the same
		// campaign; omitempty drops the former.
		if len(sub.Shim) == 0 {
			sub.Shim = nil
		}
		if !reflect.DeepEqual(sub, back) {
			t.Fatalf("round trip changed the submission:\n body %q\n got  %+v\n back %+v", body, sub, back)
		}
	})
}
