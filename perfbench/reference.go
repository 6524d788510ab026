package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/record"
)

// digest identifies a query result: its row count and a hash of its
// canonical rows, in result order when the query orders its output and
// sorted otherwise.
type digest struct {
	rows int
	sum  [sha256.Size]byte
}

// canonical renders one row's values in field order. Numbers are
// formatted from their float64 value, so an integral float and the int
// it equals read the same on both sides of the comparison.
func canonNumber(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func canonValue(v record.Value) string {
	switch v.Kind {
	case record.TInt:
		return canonNumber(float64(v.I))
	case record.TFloat:
		return canonNumber(v.F)
	case record.TBool:
		return strconv.FormatBool(v.B)
	default:
		return strconv.Quote(string(v.S))
	}
}

func digestOf(rows []string, ordered bool) digest {
	if !ordered {
		rows = append([]string(nil), rows...)
		sort.Strings(rows)
	}
	h := sha256.New()
	for _, r := range rows {
		io.WriteString(h, r)
		h.Write([]byte{'\n'})
	}
	d := digest{rows: len(rows)}
	copy(d.sum[:], h.Sum(nil))
	return d
}

// referenceDigest runs a query in process, uncosted and record at a
// time, and digests its result.
func referenceDigest(env *core.Env, cat plan.Catalog, q query) (digest, error) {
	n, err := plan.Parse(q.text)
	if err != nil {
		return digest{}, err
	}
	vals, err := plan.Run(env, cat, n)
	if err != nil {
		return digest{}, err
	}
	rows := make([]string, len(vals))
	for i, row := range vals {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = canonValue(v)
		}
		rows[i] = strings.Join(parts, ",")
	}
	return digestOf(rows, q.ordered), nil
}

// canonJSONRow renders one NDJSON result row the way canonValue renders
// a reference row: values in the order the server wrote the fields.
func canonJSONRow(line []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "", fmt.Errorf("row is not a JSON object: %q", line)
	}
	var parts []string
	for dec.More() {
		if _, err := dec.Token(); err != nil { // field name
			return "", err
		}
		t, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch v := t.(type) {
		case json.Number:
			f, err := v.Float64()
			if err != nil {
				return "", err
			}
			parts = append(parts, canonNumber(f))
		case string:
			parts = append(parts, strconv.Quote(v))
		case bool:
			parts = append(parts, strconv.FormatBool(v))
		default:
			return "", fmt.Errorf("unexpected value %v in row %q", t, line)
		}
	}
	return strings.Join(parts, ","), nil
}

// response is one parsed /query reply: the canonical rows and the
// trailing status object.
type response struct {
	rows []string
	tr   trailer
}

// parseResponse splits an NDJSON body into rows and the trailer (the
// last line).
func parseResponse(body []byte) (response, error) {
	body = bytes.TrimRight(body, "\n")
	cut := bytes.LastIndexByte(body, '\n')
	var r response
	if err := json.Unmarshal(body[cut+1:], &r.tr); err != nil {
		return r, fmt.Errorf("trailer: %w", err)
	}
	if cut < 0 {
		return r, nil
	}
	for _, line := range bytes.Split(body[:cut], []byte{'\n'}) {
		row, err := canonJSONRow(line)
		if err != nil {
			return r, err
		}
		r.rows = append(r.rows, row)
	}
	return r, nil
}

// check compares a response with its query's reference: the status must
// be ok, the trailer's row count must match the rows received, and the
// rows must match the reference digest.
func check(r response, q query, want digest) error {
	if r.tr.Status != "ok" {
		return fmt.Errorf("status %q: %s", r.tr.Status, r.tr.Error)
	}
	if int(r.tr.Rows) != len(r.rows) {
		return fmt.Errorf("trailer counts %d rows, body has %d", r.tr.Rows, len(r.rows))
	}
	if got := digestOf(r.rows, q.ordered); got != want {
		return fmt.Errorf("result differs from the reference (%d rows, want %d)", got.rows, want.rows)
	}
	return nil
}

// trailer mirrors the status object that ends every /query response.
type trailer struct {
	Status    string  `json:"status"`
	Rows      int64   `json:"rows"`
	QueryID   string  `json:"query_id"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Phases    *struct {
		PlanMs    float64 `json:"plan_ms"`
		QueuedMs  float64 `json:"queued_ms"`
		ExecuteMs float64 `json:"execute_ms"`
		StreamMs  float64 `json:"stream_ms"`
	} `json:"phases"`
	Resources *struct {
		BufferFixes      int64 `json:"buffer_fixes"`
		BufferHits       int64 `json:"buffer_hits"`
		BufferMisses     int64 `json:"buffer_misses"`
		DeviceReads      int64 `json:"device_reads"`
		DeviceWrites     int64 `json:"device_writes"`
		DeviceWriteBytes int64 `json:"device_write_bytes"`
		RowsStreamed     int64 `json:"rows_streamed"`
		BytesStreamed    int64 `json:"bytes_streamed"`
	} `json:"resources"`
	Dist *struct {
		Fragments     []json.RawMessage `json:"fragments"`
		Retries       int64             `json:"retries"`
		WireRecvBytes int64             `json:"wire_recv_bytes"`
	} `json:"dist"`
	Analyze string `json:"analyze"`
	Error   string `json:"error"`
}
