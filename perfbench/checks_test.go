package main

import (
	"net/http"
	"testing"

	"shift/internal/shift"
)

func TestCheckResponse(t *testing.T) {
	index := request{kIndex, "/index.html"}
	page := request{kPage, "/page4096.html"}
	missing := request{kNotFound, "/missing-1.html"}
	traversal := request{kTraversal, "/?file=../../etc/passwd"}
	bundle := []byte("policy violation\n\nviolation: security alert: policy H2: ...")
	for _, c := range []struct {
		name   string
		r      request
		status int
		body   []byte
		ok     bool
	}{
		{"index", index, http.StatusOK, indexBody, true},
		{"index wrong body", index, http.StatusOK, pageBody, false},
		{"index truncated", index, http.StatusOK, indexBody[:80], false},
		{"index wrong status", index, http.StatusInternalServerError, indexBody, false},
		{"page", page, http.StatusOK, pageBody, true},
		{"page flipped byte", page, http.StatusOK, append(append([]byte{}, pageBody[:4095]...), 'X'), false},
		{"404", missing, http.StatusNotFound, []byte("404 not found"), true},
		{"404 served as 200", missing, http.StatusOK, []byte("404 not found"), false},
		{"traversal", traversal, http.StatusForbidden, bundle, true},
		{"traversal served", traversal, http.StatusOK, []byte("root:x:0:0"), false},
		{"traversal without H2", traversal, http.StatusForbidden, []byte("policy violation"), false},
	} {
		if err := checkResponse(c.r, c.status, c.body); (err == nil) != c.ok {
			t.Errorf("%s: checkResponse = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

func result(cycles, retired uint64, stdout string) runOut {
	return runOut{res: &shift.Result{Cycles: cycles, Retired: retired, World: &shift.World{Stdout: []byte(stdout)}}}
}

// Instrumented runs must print what the bare run printed, and every
// instrumented mode must retire the same instructions in the same
// simulated cycles.
func TestRecordCrossChecks(t *testing.T) {
	var s progStats
	if err := s.record(bare, result(100, 50, "42\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.record(unchecked, result(180, 90, "42\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.record(hooked, result(180, 90, "42\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.record(hooked, result(181, 90, "42\n")); err == nil {
		t.Error("hooked run with different simulated cycles accepted")
	}

	var u progStats
	if err := u.record(unchecked, result(180, 90, "43\n")); err != nil {
		t.Fatal(err)
	}
	if err := u.record(bare, result(100, 50, "42\n")); err == nil {
		t.Error("instrumented output differing from the bare run accepted")
	}

	var d progStats
	if err := d.record(bare, result(100, 50, "42\n")); err != nil {
		t.Fatal(err)
	}
	if err := d.record(bare, result(101, 50, "42\n")); err == nil {
		t.Error("nondeterministic bare run accepted")
	}
}
