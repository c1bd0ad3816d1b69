package pool

import (
	"bytes"
	"testing"

	"shift/internal/shift"
	"shift/internal/workload"
)

// BenchmarkPoolRun is one served request through the pool, the way
// cmd/shiftd serves it: acquire a warm guest, run the Figure-6 server on
// a one-request world, recycle and release. It covers shiftd's two
// benign request shapes, the 81-byte index and a 4 KB page, each
// unchecked (tags and policies only) and checked by the sink-granular
// checker (shiftd's default -tagpipe 1).
func BenchmarkPoolRun(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte('a' + i%26)
	}
	docs := map[string][]byte{
		"/www/htdocs/index.html":    []byte("<html>shiftd: every byte of this page was served by an instrumented guest</html>\n"),
		"/www/htdocs/page4096.html": page,
	}
	world := func(name string) *shift.World {
		w := shift.NewWorld()
		w.Files = docs
		rec := make([]byte, workload.HTTPDRequestSize)
		copy(rec, "GET "+name)
		w.NetIn = rec
		return w
	}
	prog, err := buildHTTPD()
	if err != nil {
		b.Fatal(err)
	}
	for _, req := range []struct{ name, file string }{
		{"index", "index.html"},
		{"page", "page4096.html"},
	} {
		for _, checker := range []struct {
			name      string
			decoupled int
		}{{"unchecked", 0}, {"checked", 1}} {
			b.Run(req.name+"/"+checker.name, func(b *testing.B) {
				opt := httpdOptions()
				opt.Decoupled = checker.decoupled
				p, err := New(prog, 1, opt)
				if err != nil {
					b.Fatal(err)
				}
				body := docs["/www/htdocs/"+req.file]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := p.Run(world(req.file))
					if err != nil {
						b.Fatal(err)
					}
					if res.Alert != nil || res.Trap != nil || !bytes.Contains(res.World.NetOut, body) {
						b.Fatalf("request %s: alert=%v trap=%v, body not served", req.file, res.Alert, res.Trap)
					}
					if res.Pipe != nil && res.Pipe.Divergence() != nil {
						b.Fatal(res.Pipe.Divergence())
					}
				}
			})
		}
	}
}
