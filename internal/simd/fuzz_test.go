package simd

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"fvp"
)

// FuzzParseRuns feeds arbitrary POST /v1/runs bodies through the wire path
// up to admission: ParseRuns, then Flattened and fvp.Validate on each
// request. No input may panic; each rejection comes back as an error. A
// body that is accepted and whose every request is valid must survive a
// round trip: marshalled again, as a batch and, for one request, on its
// own, it parses back to the same requests and the same legacy flag. The
// seed corpus is in testdata/fuzz/FuzzParseRuns.
func FuzzParseRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		reqs, legacy, err := ParseRuns(raw)
		if err != nil {
			return
		}
		for _, r := range reqs {
			flat, err := r.Flattened()
			if err != nil {
				if !errors.Is(err, ErrSamplingConflict) {
					t.Fatalf("Flattened(%+v): unexpected error %v", r, err)
				}
				return
			}
			if err := fvp.Validate(flat.RunSpec); err != nil {
				return
			}
		}
		bodies := []any{map[string][]RunRequest{"runs": reqs}}
		if len(reqs) == 1 {
			bodies = append(bodies, reqs[0])
		}
		for _, body := range bodies {
			again, err := json.Marshal(body)
			if err != nil {
				t.Fatalf("marshal %+v: %v", body, err)
			}
			back, backLegacy, err := ParseRuns(again)
			if err != nil || backLegacy != legacy || !reflect.DeepEqual(back, reqs) {
				t.Fatalf("%s parsed back as %+v (legacy %v, err %v), want %+v (legacy %v)",
					again, back, backLegacy, err, reqs, legacy)
			}
		}
	})
}
