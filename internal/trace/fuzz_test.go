package trace_test

import (
	"bytes"
	"context"
	"testing"

	"nustencil/internal/dist"
	"nustencil/internal/grid"
	"nustencil/internal/stencil"
	"nustencil/internal/trace"
)

// FuzzCheckChrome feeds CheckChrome arbitrary bytes, seeded with the
// export of a traced 2-rank distributed run (spans, halo flows, counter
// tracks and metadata) and a few malformed documents. CheckChrome must
// never panic, and the kinds it counts in an accepted document must add
// up to no more than the events the document holds.
func FuzzCheckChrome(f *testing.F) {
	tr := trace.New(2)
	g := grid.New([]int{10, 10, 10})
	g.FillFunc(func(pt []int) float64 { return float64(pt[0]*7+pt[1]*3+pt[2]) * 0.01 })
	rt, err := dist.New(dist.Problem{Grid: g, Stencil: stencil.NewStar(3, 1)},
		dist.Options{Ranks: 2, ChareFactor: 2, Trace: tr})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := rt.Run(context.Background(), 3); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		f.Fatal(err)
	}
	if st, err := trace.CheckChrome(buf.Bytes()); err != nil || st.Pids != 2 || st.Flows == 0 {
		f.Fatalf("exported 2-rank trace: %+v, %v", st, err)
	}
	f.Add(buf.Bytes())
	for _, doc := range []string{
		`{`,
		`[]`,
		`{"traceEvents":null}`,
		`{"traceEvents":[null, 1, "x"]}`,
		`{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1,"dur":1}]}`,
		`{"traceEvents":[
			{"name":"process_name","ph":"M","pid":1,"tid":0},
			{"name":"halo","ph":"f","cat":"flow","id":{"k":[1]},"pid":1,"tid":0,"ts":2},
			{"name":"halo","ph":"s","cat":"flow","id":1e308,"pid":1,"tid":0,"ts":-1}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := trace.CheckChrome(data)
		if err != nil {
			return
		}
		if kinds := st.Spans + st.Counters + st.Flows + st.Instants + st.Metadata; kinds > st.Events {
			t.Fatalf("accepted document counts %d spans, counters, flows, instants and metadata in %d events: %+v", kinds, st.Events, st)
		}
	})
}
