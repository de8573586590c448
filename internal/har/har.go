// Package har implements the HTTP Archive (HAR) 1.2 format the crawler
// stores request/response logs in, mirroring the paper's Firebug+NetExport
// pipeline. Only the fields the measurement consumes are modeled; encoding
// is standard JSON so the archives are interoperable.
package har

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	"unicode/utf8"

	"adwars/internal/abp"
)

// Log is the top-level HAR structure.
type Log struct {
	Version string  `json:"version"`
	Creator Creator `json:"creator"`
	Pages   []Page  `json:"pages"`
	Entries []Entry `json:"entries"`
}

// Creator identifies the producing tool.
type Creator struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// Page is one visited page.
type Page struct {
	StartedDateTime time.Time `json:"startedDateTime"`
	ID              string    `json:"id"`
	Title           string    `json:"title"`
}

// Entry is one request/response pair.
type Entry struct {
	PageRef         string    `json:"pageref"`
	StartedDateTime time.Time `json:"startedDateTime"`
	Request         Request   `json:"request"`
	Response        Response  `json:"response"`
}

// Request is the request half of an entry.
type Request struct {
	Method string `json:"method"`
	URL    string `json:"url"`
	// ResourceType is a non-standard extension (browsers emit one too,
	// e.g. _resourceType) carrying the adblocker-relevant request type.
	ResourceType string `json:"_resourceType,omitempty"`
}

// Response is the response half of an entry.
type Response struct {
	Status  int     `json:"status"`
	Content Content `json:"content"`
}

// Content describes the response body.
type Content struct {
	Size     int    `json:"size"`
	MimeType string `json:"mimeType"`
	// Text optionally inlines the body (scripts keep it so the ML corpus
	// can be rebuilt from archives alone).
	Text string `json:"text,omitempty"`
}

// New creates an empty log for one crawl.
func New(creator string) *Log {
	return &Log{
		Version: "1.2",
		Creator: Creator{Name: creator, Version: "1.0"},
	}
}

// AddPage registers a visited page and returns its page id.
func (l *Log) AddPage(title string, started time.Time) string {
	id := fmt.Sprintf("page_%d", len(l.Pages)+1)
	l.Pages = append(l.Pages, Page{StartedDateTime: started, ID: id, Title: title})
	return id
}

// AddEntry appends a request/response record.
func (l *Log) AddEntry(pageID, url string, typ abp.RequestType, status int, body string, at time.Time) {
	l.Entries = append(l.Entries, Entry{
		PageRef:         pageID,
		StartedDateTime: at,
		Request:         Request{Method: "GET", URL: url, ResourceType: string(typ)},
		Response: Response{
			Status: status,
			Content: Content{
				Size:     len(body),
				MimeType: mimeFor(typ),
				Text:     body,
			},
		},
	})
}

func mimeFor(t abp.RequestType) string {
	switch t {
	case abp.TypeScript:
		return "application/javascript"
	case abp.TypeImage:
		return "image/png"
	case abp.TypeStylesheet:
		return "text/css"
	case abp.TypeDocument, abp.TypeSubdocument:
		return "text/html"
	default:
		return "application/octet-stream"
	}
}

// URLs returns every request URL in the log, in order. The coverage
// analysis matches these against HTTP filter rules.
func (l *Log) URLs() []string {
	out := make([]string, 0, len(l.Entries))
	for _, e := range l.Entries {
		out = append(out, e.Request.URL)
	}
	return out
}

// Marshal encodes the log as HAR JSON (the {"log": …} envelope).
func Marshal(l *Log) ([]byte, error) {
	return json.Marshal(struct {
		Log *Log `json:"log"`
	}{l})
}

// Unmarshal decodes HAR JSON produced by Marshal (or any HAR 1.2 file
// restricted to the modeled fields).
func Unmarshal(data []byte) (*Log, error) {
	var wrapper struct {
		Log *Log `json:"log"`
	}
	if err := json.Unmarshal(data, &wrapper); err != nil {
		return nil, fmt.Errorf("har: %w", err)
	}
	if wrapper.Log == nil {
		return nil, fmt.Errorf("har: missing log envelope")
	}
	return wrapper.Log, nil
}

// Union merges several logs for one site into a single request list,
// deduplicating by URL — the paper takes "a union of all HTTP requests in
// HAR files" for sites that refresh and produce multiple HARs.
func Union(logs ...*Log) *Log {
	if len(logs) == 0 {
		return New("union")
	}
	out := New(logs[0].Creator.Name)
	out.Pages = append(out.Pages, logs[0].Pages...)
	seen := make(map[string]bool)
	for _, l := range logs {
		for _, e := range l.Entries {
			if seen[e.Request.URL] {
				continue
			}
			seen[e.Request.URL] = true
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// Size returns len(Marshal(l)) without encoding the log; the crawler
// uses it to detect partial snapshots (the paper discards HARs under 10%
// of a site's average yearly HAR size). It returns 0 when Marshal would
// fail: a timestamp RFC 3339 cannot express.
func (l *Log) Size() int {
	if l == nil {
		return len(`{"log":null}`)
	}
	n := len(`{"log":{"version":`) + stringLen(l.Version) +
		len(`,"creator":{"name":`) + stringLen(l.Creator.Name) +
		len(`,"version":`) + stringLen(l.Creator.Version) +
		len(`},"pages":`) + len(`,"entries":`) + len(`}}`)
	ok := true
	n += arrayLen(l.Pages, func(p *Page) int {
		tl, tok := timeLen(p.StartedDateTime)
		ok = ok && tok
		return len(`{"startedDateTime":`) + tl +
			len(`,"id":`) + stringLen(p.ID) +
			len(`,"title":`) + stringLen(p.Title) + len(`}`)
	})
	n += arrayLen(l.Entries, func(e *Entry) int {
		tl, tok := timeLen(e.StartedDateTime)
		ok = ok && tok
		m := len(`{"pageref":`) + stringLen(e.PageRef) +
			len(`,"startedDateTime":`) + tl +
			len(`,"request":{"method":`) + stringLen(e.Request.Method) +
			len(`,"url":`) + stringLen(e.Request.URL) +
			len(`},"response":{"status":`) + intLen(e.Response.Status) +
			len(`,"content":{"size":`) + intLen(e.Response.Content.Size) +
			len(`,"mimeType":`) + stringLen(e.Response.Content.MimeType) +
			len(`}}}`)
		if rt := e.Request.ResourceType; rt != "" {
			m += len(`,"_resourceType":`) + stringLen(rt)
		}
		if text := e.Response.Content.Text; text != "" {
			m += len(`,"text":`) + stringLen(text)
		}
		return m
	})
	if !ok {
		return 0
	}
	return n
}

// arrayLen is the encoded length of a JSON array: null for a nil slice,
// else the bracketed, comma-separated elements.
func arrayLen[T any](xs []T, elem func(*T) int) int {
	if xs == nil {
		return len("null")
	}
	n := len("[]")
	for i := range xs {
		if i > 0 {
			n++
		}
		n += elem(&xs[i])
	}
	return n
}

// stringLen is the length of s as encoding/json writes it: quoted, with
// <, > and & escaped for HTML, control bytes escaped, invalid UTF-8
// replaced by \ufffd, and U+2028/U+2029 escaped.
func stringLen(s string) int {
	n := len(`""`)
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
				n += 2
			case b < 0x20 || b == '<' || b == '>' || b == '&':
				n += len(`\u0000`)
			default:
				n++
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			n += len(`\ufffd`)
		} else {
			n += size
		}
		i += size
	}
	return n
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	var buf [24]byte
	return len(strconv.AppendInt(buf[:0], int64(v), 10))
}

// timeLen is the length of t as encoding/json writes it — a quoted
// RFC 3339 timestamp with nanoseconds — and false when time.Time's
// MarshalJSON refuses it (a year outside [0,9999] or a zone offset of 24
// hours or more).
func timeLen(t time.Time) (int, bool) {
	if y := t.Year(); y < 0 || y > 9999 {
		return 0, false
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return 0, false
	}
	var buf [len(time.RFC3339Nano) + 8]byte
	return len(`""`) + len(t.AppendFormat(buf[:0], time.RFC3339Nano)), true
}
