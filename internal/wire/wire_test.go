package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Verb: VerbPing},
		{Verb: VerbOpen, Name: "uni", DTD: "<!ELEMENT a (#PCDATA)>", Root: "a"},
		{Verb: VerbLoad, Name: "doc.xml", XML: "<a>x &amp; y\nnewline</a>"},
		{Verb: VerbSQL, SQL: "SELECT u.attrName FROM TabUniversity u"},
		{Verb: VerbXPath, Path: `/University/Student[@StudNo="1"]`},
		{Verb: VerbRetrieve, DocID: 7},
		{Verb: VerbBegin, Store: "other"},
		{Verb: VerbBulkLoad, Docs: []BulkDoc{{Name: "a.xml", XML: "<a/>"}, {XML: "<a>2</a>"}},
			Workers: 4, BatchDocs: 32, BatchBytes: 1 << 20, KeepGoing: true},
	}
	for _, req := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &req); err != nil {
			t.Fatalf("write %+v: %v", req, err)
		}
		if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
			t.Fatalf("frame for %+v contains %d newlines", req, n)
		}
		line, err := ReadFrame(bufio.NewReader(&buf), 0)
		if err != nil {
			t.Fatalf("read %+v: %v", req, err)
		}
		got, err := DecodeRequest(line)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if !reflect.DeepEqual(*got, req) {
			t.Errorf("round trip: got %+v, want %+v", *got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		OK:   true,
		Cols: []string{"A", "B"},
		Rows: [][]any{{"x", float64(2)}, {nil, "y"}},
		XML:  "<a/>",
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	line, err := ReadFrame(bufio.NewReader(&buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(line)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || len(got.Rows) != 2 || got.Rows[0][1] != float64(2) || got.Rows[1][0] != nil {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"not json", "hello there"},
		{"truncated json", `{"verb":"PING"`},
		{"wrong type", `{"verb":42}`},
		{"unknown field", `{"verb":"PING","bogus":1}`},
		{"trailing garbage", `{"verb":"PING"} extra`},
		{"missing verb", `{"name":"x"}`},
		{"array not object", `["PING"]`},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest([]byte(tc.line)); err == nil {
			t.Errorf("%s: decode %q succeeded, want error", tc.name, tc.line)
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	big := `{"verb":"LOAD","xml":"` + strings.Repeat("a", 4096) + `"}` + "\n"
	br := bufio.NewReaderSize(strings.NewReader(big), 64)
	if _, err := ReadFrame(br, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// A frame exactly at the limit passes.
	payload := strings.Repeat("b", 100)
	br = bufio.NewReaderSize(strings.NewReader(payload+"\n"), 64)
	line, err := ReadFrame(br, 100)
	if err != nil || string(line) != payload {
		t.Fatalf("at-limit frame: %q, %v", line, err)
	}
	// One byte over fails.
	br = bufio.NewReaderSize(strings.NewReader(payload+"c\n"), 64)
	if _, err := ReadFrame(br, 100); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-limit frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameDisconnects(t *testing.T) {
	// EOF with nothing read: io.EOF (clean disconnect).
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader("")), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	// EOF mid-frame (client died while sending): io.ErrUnexpectedEOF.
	if _, err := ReadFrame(bufio.NewReader(strings.NewReader(`{"verb":"PI`)), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Blank line: ErrEmptyFrame, and the stream stays aligned for the
	// next frame.
	br := bufio.NewReader(strings.NewReader("\r\n{\"verb\":\"PING\"}\n"))
	if _, err := ReadFrame(br, 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("blank line: err = %v, want ErrEmptyFrame", err)
	}
	line, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("frame after blank line: %v", err)
	}
	if req, err := DecodeRequest(line); err != nil || req.Verb != VerbPing {
		t.Fatalf("frame after blank line: %+v, %v", req, err)
	}
}

func TestReadFrameSplitAcrossBuffers(t *testing.T) {
	// A frame much larger than the bufio buffer must reassemble intact.
	payload := `{"verb":"LOAD","xml":"` + strings.Repeat("x", 10_000) + `"}`
	br := bufio.NewReaderSize(strings.NewReader(payload+"\n"), 32)
	line, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != payload {
		t.Fatalf("reassembled frame corrupt (len %d vs %d)", len(line), len(payload))
	}
}

func TestServerErrorMapping(t *testing.T) {
	resp := &Response{OK: false, Code: CodeTx, Error: "no transaction open"}
	err := resp.Err()
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeTx {
		t.Fatalf("Err() = %v, want ServerError with code tx", err)
	}
	if (&Response{OK: true}).Err() != nil {
		t.Fatal("OK response produced an error")
	}
}
