package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fvp"
)

// refParseRuns is the reference for ParseRuns: the two decodes it was
// first written as, the envelope and then, unless that decodes with
// "runs" set, a single spec.
func refParseRuns(raw []byte) (reqs []RunRequest, legacy bool, err error) {
	var batch struct {
		Runs []RunRequest `json:"runs"`
	}
	if err := json.Unmarshal(raw, &batch); err == nil && batch.Runs != nil {
		reqs = batch.Runs
	} else {
		var one RunRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, false, errors.New("simd: body must be a run spec or {\"runs\":[...]}")
		}
		reqs = []RunRequest{one}
	}
	for _, r := range reqs {
		if r.Sampling == nil && r.flatSampling() {
			legacy = true
			break
		}
	}
	return reqs, legacy, nil
}

// FuzzParseRuns feeds arbitrary POST /v1/runs bodies through the wire path
// up to admission: ParseRuns, then Flattened and fvp.Validate on each
// request. ParseRuns must agree with refParseRuns on every input: the
// same requests, the same legacy flag, the same error or none. No input
// may panic; each rejection comes back as an error. A body that is
// accepted and whose every request is valid must survive a round trip:
// marshalled again, as a batch and, for one request, on its own, it
// parses back to the same requests and the same legacy flag. The seed
// corpus is in testdata/fuzz/FuzzParseRuns.
func FuzzParseRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		reqs, legacy, err := ParseRuns(raw)
		refReqs, refLegacy, refErr := refParseRuns(raw)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || legacy != refLegacy || !reflect.DeepEqual(reqs, refReqs) {
			t.Fatalf("%q: ParseRuns gave %+v (legacy %v, err %v), reference %+v (legacy %v, err %v)",
				raw, reqs, legacy, err, refReqs, refLegacy, refErr)
		}
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
