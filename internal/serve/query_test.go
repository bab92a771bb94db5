package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/workloads"
)

// queryKeys is what a parsed query decides about the memo: the canonical
// dataset keys of a few experiments and one scenario cell's key.
func queryKeys(t *testing.T, o experiments.Options) []string {
	t.Helper()
	var keys []string
	for _, id := range []string{"fig5", "fig7", "tpp-timeline", "table1"} {
		k, err := experiments.DatasetKey(id, o)
		if err != nil {
			t.Fatalf("DatasetKey(%s): %v", id, err)
		}
		keys = append(keys, k)
	}
	sc, err := workloads.ParseScenario("kvstore/policy=cxl")
	if err != nil {
		t.Fatal(err)
	}
	return append(keys, experiments.ScenarioKey(o, sc))
}

// parsed is parseQuery's outcome in comparable form.
type parsed struct {
	keys   string
	format string
	err    string
}

func parseOutcome(t *testing.T, q url.Values, base experiments.Options) parsed {
	t.Helper()
	o, em, err := parseQuery(q, base)
	if err != nil {
		return parsed{err: err.Error()}
	}
	return parsed{keys: strings.Join(queryKeys(t, o), "\n"), format: em.Name()}
}

// reorder stably sorts a raw query's pairs by their unescaped key,
// descending: distinct keys change places, repeats of one key keep their
// order (the first value of a key is the one that counts).
func reorder(raw string) string {
	pairs := strings.Split(raw, "&")
	key := func(p string) string {
		k, _, _ := strings.Cut(p, "=")
		if u, err := url.QueryUnescape(k); err == nil {
			return u
		}
		return k
	}
	sort.SliceStable(pairs, func(i, j int) bool { return key(pairs[i]) > key(pairs[j]) })
	return strings.Join(pairs, "&")
}

// swapASCIICase swaps the case of every ASCII letter in s.
func swapASCIICase(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c|0x20 && c|0x20 <= 'z' {
			b[i] = c ^ 0x20
		}
	}
	return string(b)
}

// boolSpellings are strconv.ParseBool's spellings of each value.
var boolSpellings = map[bool][]string{
	true:  {"1", "t", "T", "TRUE", "true", "True"},
	false: {"0", "f", "F", "FALSE", "false", "False"},
}

// FuzzRequestQuery feeds raw query strings to the option parser. It must
// never panic; every error must reach the client as a 400 with nothing else
// written; and on success the canonical memo keys must not depend on the
// order of distinct parameters, on format, or on equivalent spellings of a
// boolean or of a platform's case.
func FuzzRequestQuery(f *testing.F) {
	for _, seed := range []string{
		"", "id=fig4a", "id=fig4a&format=csv", "id=table2&format=text", "id=table2&format=yaml",
		"id=fig5&fidelity=approximate", "id=fig5&fidelity=auto", "id=fig5&fidelity=FAST",
		"id=matrix-apps&platform=atari2600", "id=matrix-size&seed=990001", "id=table2&quick=maybe",
		"id=table2&seed=banana", "id=table2&timeout=-5s", "id=tpp-timeline&seed=7",
		"spec=kvstore/policy=cxl&format=json", "spec=fluid/policy=interleave/size=64M",
		// Hostile: repeats, negatives, NULs, bad escapes, long values.
		"quick=1&quick=0&seed=3&seed=4", "seed=-1", "platform=%00", "platform=X16-QUAD&quick=T",
		"fastwarm=true&quick=false&format=csv&platform=Default", "fastwarm=F&quick=1", "fidelity=exact&fidelity=bogus",
		"format=json&format=csv", "seed=18446744073709551616", "quick=%zz", "%=&==&&",
		"platform=" + strings.Repeat("A", 10<<10), "seed=" + strings.Repeat("9", 10<<10),
	} {
		f.Add(seed)
	}
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	s := NewServer(Config{Base: base})
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		got := parseOutcome(t, q, base)

		// The handler path: an error is a 400 and nothing more; success
		// writes nothing.
		rec := httptest.NewRecorder()
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/run", RawQuery: raw}, Header: http.Header{}}
		_, _, ok := s.requestOptions(rec, r)
		switch {
		case ok != (got.err == ""):
			t.Fatalf("%q: requestOptions ok=%v, parseQuery error %q", raw, ok, got.err)
		case !ok && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), got.err)):
			t.Fatalf("%q: error answered %d %q, want 400 with %q", raw, rec.Code, rec.Body.String(), got.err)
		case ok && (rec.Body.Len() != 0 || len(rec.Header()) != 0):
			t.Fatalf("%q: a successful parse wrote %q", raw, rec.Body.String())
		}

		// Distinct parameters in another order: the same outcome.
		rq, _ := url.ParseQuery(reorder(raw))
		if again := parseOutcome(t, rq, base); again != got {
			t.Fatalf("%q reordered as %q: %+v, want %+v", raw, reorder(raw), again, got)
		}
		if got.err != "" {
			return
		}

		// format never reaches a key.
		for _, format := range []string{"", "text", "json", "csv"} {
			v := cloneValues(q)
			v.Del("format")
			if format != "" {
				v.Set("format", format)
			}
			if alt := parseOutcome(t, v, base); alt.err != "" || alt.keys != got.keys {
				t.Fatalf("%q with format=%q: keys or error changed (%q)", raw, format, alt.err)
			}
		}
		// Equivalent spellings of a boolean, and of a platform's case.
		for _, name := range []string{"quick", "fastwarm"} {
			if vs := q[name]; len(vs) > 0 && vs[0] != "" {
				on, _ := strconv.ParseBool(vs[0])
				for _, spelling := range boolSpellings[on] {
					v := cloneValues(q)
					v[name][0] = spelling
					if alt := parseOutcome(t, v, base); alt != got {
						t.Fatalf("%q with %s=%s: %+v, want %+v", raw, name, spelling, alt, got)
					}
				}
			}
		}
		if vs := q["platform"]; len(vs) > 0 {
			for _, spelling := range []string{mapASCII(vs[0], 'a', 'A'), mapASCII(vs[0], 'A', 'a'), swapASCIICase(vs[0])} {
				v := cloneValues(q)
				v["platform"][0] = spelling
				if alt := parseOutcome(t, v, base); alt != got {
					t.Fatalf("%q with platform=%q: %+v, want %+v", raw, spelling, alt, got)
				}
			}
		}
	})
}

// mapASCII moves every ASCII letter from the case starting at from to the
// case starting at to ('a' and 'A'), leaving every other byte alone.
func mapASCII(s string, from, to byte) string {
	b := []byte(s)
	for i, c := range b {
		if from <= c && c < from+26 {
			b[i] = c - from + to
		}
	}
	return string(b)
}

// cloneValues deep-copies a parsed query.
func cloneValues(q url.Values) url.Values {
	out := make(url.Values, len(q))
	for k, vs := range q {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// TestParseQueryFirstValueWins pins the repeat rule the fuzz target relies
// on, that equivalent spellings reach the same options, and the retired
// fastwarm parameter: false is ignored (coordinators before its retirement
// send it on every cell fetch), true is refused with a pointer to
// fidelity=auto.
func TestParseQueryFirstValueWins(t *testing.T) {
	base := experiments.DefaultOptions()
	for raw, want := range map[string]experiments.Options{
		"quick=1&quick=0":           {Quick: true, Seed: base.Seed, Parallel: base.Parallel},
		"quick=T":                   {Quick: true, Seed: base.Seed, Parallel: base.Parallel},
		"seed=3&seed=4":             {Seed: 3, Parallel: base.Parallel},
		"platform=X16-Quad":         {Platform: "x16-quad", Seed: base.Seed, Parallel: base.Parallel},
		"fastwarm=0":                base,
		"fidelity=FAST&fastwarm=0":  {Fidelity: experiments.FidelityFast, Seed: base.Seed, Parallel: base.Parallel},
		"fastwarm=false&fastwarm=1": base,
	} {
		q, _ := url.ParseQuery(raw)
		got, _, err := parseQuery(q, base)
		if err != nil || got != want {
			t.Errorf("%q: %+v, %v; want %+v", raw, got, err, want)
		}
	}
	for _, raw := range []string{"seed=-1", "quick=maybe", "fastwarm=2", "fidelity=bogus", "format=yaml", "seed=18446744073709551616"} {
		q, _ := url.ParseQuery(raw)
		if _, _, err := parseQuery(q, base); err == nil {
			t.Errorf("%q parsed without error", raw)
		}
	}
	for _, raw := range []string{"fastwarm=1", "fastwarm=true", "fidelity=auto&fastwarm=T"} {
		q, _ := url.ParseQuery(raw)
		_, _, err := parseQuery(q, base)
		if err == nil || !strings.Contains(err.Error(), "retired") || !strings.Contains(err.Error(), "fidelity=auto") {
			t.Errorf("%q: error %v, want the retirement naming fidelity=auto", raw, err)
		}
	}
}
