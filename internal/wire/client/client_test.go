package client

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"enrichdb/internal/types"
	"enrichdb/internal/wire"
)

// fakeServer accepts one connection, completes the handshake and answers
// every Query frame with the frames answer builds for its ID.
func fakeServer(t *testing.T, answer func(id uint32) []wire.Frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(conn, 0); err != nil {
			return
		}
		if wire.WriteFrame(conn, &wire.Welcome{Proto: wire.ProtoVersion}) != nil {
			return
		}
		for {
			fr, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			q, ok := fr.(*wire.Query)
			if !ok {
				continue
			}
			for _, f := range answer(q.ID) {
				if wire.WriteFrame(conn, f) != nil {
					return
				}
			}
		}
	}()
	return ln.Addr().String()
}

func intRows(lo, hi int64) [][]types.Value {
	var rows [][]types.Value
	for v := lo; v < hi; v++ {
		rows = append(rows, []types.Value{types.NewInt(v), types.NewString("x")})
	}
	return rows
}

func query(t *testing.T, addr string) (*Result, error) {
	t.Helper()
	c, err := Dial(addr, Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return c.Query(ctx, wire.DesignPlain, "SELECT 1")
}

// TestClientExpandsBatchesOnce: two batches arrive as one result, in order,
// with the row count the terminal frame reports.
func TestClientExpandsBatchesOnce(t *testing.T) {
	addr := fakeServer(t, func(id uint32) []wire.Frame {
		return []wire.Frame{
			&wire.ResultHeader{Query: id, Columns: []string{"n", "s"}},
			wire.BatchFromValues(id, intRows(0, 3)),
			wire.BatchFromValues(id, intRows(3, 5)),
			&wire.ResultDone{Query: id, Rows: 5},
		}
	})
	res, err := query(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.RowCount != 5 {
		t.Fatalf("got %d rows (count %d), want 5", len(res.Rows), res.RowCount)
	}
	for i, row := range res.Rows {
		if len(row) != 2 || row[0].Int() != int64(i) || row[1].Str() != "x" {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

// TestClientRejectsMalformedBatch: a batch whose width is not the header's
// fails the call instead of being dropped.
func TestClientRejectsMalformedBatch(t *testing.T) {
	addr := fakeServer(t, func(id uint32) []wire.Frame {
		narrow := wire.BatchFromValues(id, [][]types.Value{{types.NewInt(7)}})
		return []wire.Frame{
			&wire.ResultHeader{Query: id, Columns: []string{"n", "s"}},
			wire.BatchFromValues(id, intRows(0, 2)),
			narrow,
			&wire.ResultDone{Query: id, Rows: 3},
		}
	})
	res, err := query(t, addr)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("malformed batch: got %v, %v; want a width error", res, err)
	}
}

// TestClientRejectsWrongRowCount: a stream that carries fewer or more rows
// than ResultDone reports fails the call.
func TestClientRejectsWrongRowCount(t *testing.T) {
	for _, reported := range []uint64{1, 4} {
		addr := fakeServer(t, func(id uint32) []wire.Frame {
			return []wire.Frame{
				&wire.ResultHeader{Query: id, Columns: []string{"n", "s"}},
				wire.BatchFromValues(id, intRows(0, 2)),
				&wire.ResultDone{Query: id, Rows: reported},
			}
		})
		res, err := query(t, addr)
		if err == nil || !strings.Contains(err.Error(), "received 2 rows") {
			t.Fatalf("reported %d: got %v, %v; want a row-count error", reported, res, err)
		}
	}
}
