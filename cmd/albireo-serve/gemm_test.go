package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"albireo/internal/tensor"
)

func postGEMM(t *testing.T, h http.Handler, req gemmRequest) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/gemm", bytes.NewReader(raw))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, r)
	return rec
}

func wireMatrix(m *tensor.Matrix) gemmMatrix {
	return gemmMatrix{R: m.R, C: m.C, Data: m.Data}
}

func TestGEMMEndpoint(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	a := tensor.RandomMatrix(4, 12, 81)
	b := tensor.RandomMatrix(12, 6, 82)
	rec := postGEMM(t, srv, gemmRequest{A: wireMatrix(a), B: wireMatrix(b)})
	if rec.Code != http.StatusOK {
		t.Fatalf("gemm status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Albireo-Seq") == "" {
		t.Fatal("response missing X-Albireo-Seq")
	}
	var resp gemmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("gemm JSON: %v", err)
	}
	if resp.R != a.R || resp.C != b.C || len(resp.Data) != a.R*b.C {
		t.Fatalf("result shape %dx%d (%d values), want %dx%d", resp.R, resp.C, len(resp.Data), a.R, b.C)
	}
	// The served result must be close to the exact product (one analog
	// GEMM against the digital reference).
	want := tensor.MatMul(a, b)
	var num, den float64
	for i := range resp.Data {
		d := resp.Data[i] - want.Data[i]
		num += d * d
		den += want.Data[i] * want.Data[i]
	}
	if r := math.Sqrt(num / den); r > 0.5 {
		t.Fatalf("served GEMM relative RMS vs exact = %v", r)
	}
}

func TestGEMMEndpointOpTags(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	a := tensor.RandomMatrix(2, 4, 83)
	b := tensor.RandomMatrix(4, 3, 84)
	for _, op := range []string{"", "gemm", "lstm", "attention"} {
		if rec := postGEMM(t, srv, gemmRequest{Op: op, A: wireMatrix(a), B: wireMatrix(b)}); rec.Code != http.StatusOK {
			t.Fatalf("op %q: status %d: %s", op, rec.Code, rec.Body.String())
		}
	}
	if rec := postGEMM(t, srv, gemmRequest{Op: "conv", A: wireMatrix(a), B: wireMatrix(b)}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown op accepted: %d", rec.Code)
	}
}

func TestGEMMEndpointRejects(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	a := tensor.RandomMatrix(2, 4, 85)
	b := tensor.RandomMatrix(4, 3, 86)

	if rec := get(t, srv, "/v1/gemm"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/gemm: %d", rec.Code)
	}
	// Inner-dimension mismatch.
	bad := tensor.RandomMatrix(5, 3, 87)
	if rec := postGEMM(t, srv, gemmRequest{A: wireMatrix(a), B: wireMatrix(bad)}); rec.Code != http.StatusBadRequest {
		t.Fatalf("inner mismatch: %d", rec.Code)
	}
	// Data length mismatch.
	short := gemmMatrix{R: 2, C: 4, Data: []float64{1, 2}}
	if rec := postGEMM(t, srv, gemmRequest{A: short, B: wireMatrix(b)}); rec.Code != http.StatusBadRequest {
		t.Fatalf("short data: %d", rec.Code)
	}
	// Non-positive dimensions.
	if rec := postGEMM(t, srv, gemmRequest{A: gemmMatrix{R: 0, C: 0}, B: wireMatrix(b)}); rec.Code != http.StatusBadRequest {
		t.Fatalf("zero dims: %d", rec.Code)
	}
}

// TestGEMMEndpointRelu: relu in the request clamps the served output.
func TestGEMMEndpointRelu(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	a := tensor.RandomMatrix(3, 8, 88)
	b := tensor.RandomMatrix(8, 4, 89)
	rec := postGEMM(t, srv, gemmRequest{A: wireMatrix(a), B: wireMatrix(b), ReLU: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("gemm relu status %d: %s", rec.Code, rec.Body.String())
	}
	var resp gemmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, v := range resp.Data {
		if v < 0 {
			t.Fatalf("ReLU output[%d] = %v < 0", i, v)
		}
	}
}

// TestGEMMEndpointRejectsOversizedShapes: r = c = 2^32 with empty data
// used to wrap r*c to zero, pass the length check and panic a fleet
// worker. Operands and products past what a request body can carry
// must get 400, and the server must go on serving.
func TestGEMMEndpointRejectsOversizedShapes(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	a := tensor.RandomMatrix(2, 4, 85)
	b := tensor.RandomMatrix(4, 3, 86)
	huge := gemmMatrix{R: 1 << 32, C: 1 << 32}
	col, row := tensor.RandomMatrix(4096, 1, 87), tensor.RandomMatrix(1, 4096, 88)
	for _, tc := range []struct {
		name string
		req  gemmRequest
	}{
		{"a and b wrap", gemmRequest{A: huge, B: huge}},
		{"a past the body cap", gemmRequest{A: gemmMatrix{R: maxWireElems + 1, C: 1}, B: wireMatrix(b)}},
		{"product past the body cap", gemmRequest{A: wireMatrix(col), B: wireMatrix(row)}},
	} {
		if rec := postGEMM(t, srv, tc.req); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, rec.Code)
		}
	}
	if rec := postGEMM(t, srv, gemmRequest{A: wireMatrix(a), B: wireMatrix(b)}); rec.Code != http.StatusOK {
		t.Fatalf("valid request after rejects: %d %s", rec.Code, rec.Body.String())
	}
}
