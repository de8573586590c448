package har

import (
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
)

func sampleLog() *Log {
	l := New("adwars-crawler")
	t0 := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	pid := l.AddPage("http://dailynews.com/", t0)
	l.AddEntry(pid, "http://dailynews.com/", abp.TypeDocument, 200, "<html></html>", t0)
	l.AddEntry(pid, "http://pagefair.com/static/adblock_detection/js/d.min.js",
		abp.TypeScript, 200, "var x = 1;", t0.Add(time.Second))
	l.AddEntry(pid, "http://img.dailynews.com/logo.png", abp.TypeImage, 200, "PNG", t0.Add(2*time.Second))
	return l
}

func TestMarshalRoundTrip(t *testing.T) {
	l := sampleLog()
	data, err := Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"log"`) {
		t.Fatal("missing log envelope")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 3 || len(back.Pages) != 1 {
		t.Fatalf("round trip lost data: %d entries %d pages", len(back.Entries), len(back.Pages))
	}
	if back.Entries[1].Request.URL != l.Entries[1].Request.URL {
		t.Fatal("entry URL mismatch")
	}
	if back.Entries[1].Response.Content.Text != "var x = 1;" {
		t.Fatal("script body lost")
	}
	if back.Version != "1.2" {
		t.Fatalf("version = %q", back.Version)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Error("invalid JSON must error")
	}
	if _, err := Unmarshal([]byte(`{"notlog": {}}`)); err == nil {
		t.Error("missing envelope must error")
	}
}

func TestURLs(t *testing.T) {
	l := sampleLog()
	urls := l.URLs()
	if len(urls) != 3 {
		t.Fatalf("URLs = %v", urls)
	}
	if urls[1] != "http://pagefair.com/static/adblock_detection/js/d.min.js" {
		t.Fatalf("urls[1] = %q", urls[1])
	}
}

func TestUnion(t *testing.T) {
	a := sampleLog()
	b := sampleLog() // identical URLs → dedup to 3
	extra := New("adwars-crawler")
	pid := extra.AddPage("refresh", time.Now().UTC())
	extra.AddEntry(pid, "http://dailynews.com/refresh.js", abp.TypeScript, 200, "", time.Now().UTC())

	u := Union(a, b, extra)
	if len(u.Entries) != 4 {
		t.Fatalf("union entries = %d, want 4", len(u.Entries))
	}
	if Union().Entries != nil {
		t.Error("empty union should have no entries")
	}
}

func TestMimeFor(t *testing.T) {
	cases := map[abp.RequestType]string{
		abp.TypeScript:     "application/javascript",
		abp.TypeImage:      "image/png",
		abp.TypeStylesheet: "text/css",
		abp.TypeDocument:   "text/html",
		abp.TypeOther:      "application/octet-stream",
	}
	for typ, want := range cases {
		if got := mimeFor(typ); got != want {
			t.Errorf("mimeFor(%s) = %q, want %q", typ, got, want)
		}
	}
}

func TestSizeReflectsContent(t *testing.T) {
	small := New("c")
	big := sampleLog()
	if small.Size() >= big.Size() {
		t.Fatalf("size: small=%d big=%d", small.Size(), big.Size())
	}
	if big.Size() <= 0 {
		t.Fatal("size must be positive")
	}
}

// marshalLen is the reference Size must agree with: the encoded length,
// or 0 when Marshal refuses the log.
func marshalLen(t testing.TB, l *Log) int {
	t.Helper()
	b, err := Marshal(l)
	if err != nil {
		return 0
	}
	return len(b)
}

func TestSizeMatchesMarshal(t *testing.T) {
	t0 := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	withEntry := func(mod func(*Log)) *Log {
		l := sampleLog()
		mod(l)
		return l
	}
	cases := map[string]*Log{
		"nil log":     nil,
		"empty":       New("c"),
		"empty lists": {Pages: []Page{}, Entries: []Entry{}},
		"sample":      sampleLog(),
		"html escapes": withEntry(func(l *Log) {
			l.Entries[1].Response.Content.Text = `if (a < b && c > d) { x = "<div>"; }`
		}),
		"short escapes": withEntry(func(l *Log) {
			l.Entries[0].Request.URL = "a\"b\\c\bd\fe\nf\rg\th"
		}),
		"control bytes": withEntry(func(l *Log) {
			l.Creator.Name = "\x00\x01\x1f\x7f"
		}),
		"invalid utf8": withEntry(func(l *Log) {
			l.Pages[0].Title = "ok\xffbad\xc3\x28é世界"
		}),
		"line separators": withEntry(func(l *Log) {
			l.Entries[2].Response.Content.MimeType = "a\u2028b\u2029c"
		}),
		"omitempty": withEntry(func(l *Log) {
			l.Entries[1].Request.ResourceType = ""
			l.Entries[1].Response.Content.Text = ""
		}),
		"negative ints": withEntry(func(l *Log) {
			l.Entries[0].Response.Status = -404
			l.Entries[0].Response.Content.Size = -1
		}),
		"nanoseconds and zone": withEntry(func(l *Log) {
			l.Entries[0].StartedDateTime = t0.Add(123456789).In(time.FixedZone("X", -(5*3600 + 30*60)))
			l.Pages[0].StartedDateTime = t0.Add(100 * time.Millisecond)
		}),
		"zero time": withEntry(func(l *Log) {
			l.Entries[0].StartedDateTime = time.Time{}
		}),
		"year out of range": withEntry(func(l *Log) {
			l.Entries[0].StartedDateTime = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		}),
		"negative year": withEntry(func(l *Log) {
			l.Pages[0].StartedDateTime = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)
		}),
		"zone out of range": withEntry(func(l *Log) {
			l.Entries[0].StartedDateTime = t0.In(time.FixedZone("Y", 24*3600))
		}),
		"zone at limit": withEntry(func(l *Log) {
			l.Entries[0].StartedDateTime = t0.In(time.FixedZone("Y", 24*3600-1))
		}),
	}
	for name, l := range cases {
		if got, want := l.Size(), marshalLen(t, l); got != want {
			t.Errorf("%s: Size() = %d, len(Marshal) = %d", name, got, want)
		}
	}
}

func FuzzSize(f *testing.F) {
	f.Add("1.2", "page <1>", "http://a.com/x?y=1&z=2", "script", "var s = \"\\u2028\";\n", 200, int64(1433160000), int64(5), 0, false)
	f.Add("", "\xff\xfe", "\x00\x1f\x7f", "", "", -1, int64(-62167219200), int64(0), 3600, true)
	f.Add("v", "t", "u", "r", "b", 0, int64(253402300800), int64(999999999), -86400, false)
	f.Fuzz(func(t *testing.T, version, title, url, rtype, body string, status int, sec, nsec int64, offset int, nilPages bool) {
		at := time.Unix(sec, nsec).In(time.FixedZone("F", offset))
		l := New(version)
		pid := l.AddPage(title, at)
		l.AddEntry(pid, url, abp.RequestType(rtype), status, body, at)
		l.Entries = append(l.Entries, Entry{PageRef: title, Request: Request{Method: body, URL: rtype}})
		if nilPages {
			l.Pages = nil
		}
		if got, want := l.Size(), marshalLen(t, l); got != want {
			t.Fatalf("Size() = %d, len(Marshal) = %d", got, want)
		}
	})
}
