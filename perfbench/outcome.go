package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/platform"
	"repro/internal/provider"
	"repro/internal/redact"
)

// Outcome is the class of one client op's result.
type Outcome int

const (
	// OK: the op succeeded.
	OK Outcome = iota
	// Denied: the platform answered with a Graph API error (a policy
	// denial, a dead token, a duplicate like). These are expected
	// outcomes of the workload, not failures.
	Denied
	// Failed: anything else — a transport error, an undecodable reply,
	// a read of the wrong length. Failures count in fail_frac.
	Failed
)

// classify sorts an op's error into an Outcome. A Graph API error is
// recognised by its code or its provider-neutral kind, whichever
// transport returned it.
func classify(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case platform.ErrorCode(err) != 0 || platform.ErrorKind(err) != provider.KindNone:
		return Denied
	default:
		return Failed
	}
}

// Tally counts op outcomes; denials are broken down by error kind.
type Tally struct {
	Attempted int64
	OK        int64
	Failed    int64
	Denied    map[string]int64
	// FirstFailure keeps one failure message for the report.
	FirstFailure string
}

func newTally() *Tally { return &Tally{Denied: make(map[string]int64)} }

// Note records one op's error and returns its outcome.
func (t *Tally) Note(err error) Outcome {
	t.Attempted++
	o := classify(err)
	switch o {
	case OK:
		t.OK++
	case Denied:
		t.Denied[platform.ErrorKind(err).String()]++
	case Failed:
		t.fail(err.Error())
	}
	return o
}

// NoteRead records a read op that returned got likes where want were
// expected: a successful read of the wrong length is a failure.
func (t *Tally) NoteRead(err error, got, want int) Outcome {
	if err == nil && got != want {
		t.Attempted++
		t.fail(fmt.Sprintf("read returned %d likes, want %d", got, want))
		return Failed
	}
	return t.Note(err)
}

// NoteDenied records an op the system refused for a reason outside the
// Graph API's error space (a collusion site's own refusal).
func (t *Tally) NoteDenied(kind string) {
	t.Attempted++
	t.Denied[kind]++
}

func (t *Tally) fail(msg string) {
	t.Failed++
	if t.FirstFailure == "" {
		// Transport errors quote the request URL, access token included.
		t.FirstFailure = redact.String(msg)
	}
}

// Merge adds o into t.
func (t *Tally) Merge(o *Tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Failed += o.Failed
	for k, v := range o.Denied {
		t.Denied[k] += v
	}
	if t.FirstFailure == "" {
		t.FirstFailure = o.FirstFailure
	}
}

// DeniedTotal sums the denials of every kind.
func (t *Tally) DeniedTotal() int64 {
	var n int64
	for _, v := range t.Denied {
		n += v
	}
	return n
}

// String renders the tally for the report.
func (t *Tally) String() string {
	kinds := make([]string, 0, len(t.Denied))
	for k := range t.Denied {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, t.Denied[k]))
	}
	s := fmt.Sprintf("attempted=%d ok=%d denied=%d [%s] failed=%d",
		t.Attempted, t.OK, t.DeniedTotal(), strings.Join(parts, " "), t.Failed)
	if t.FirstFailure != "" {
		s += " first-failure=" + t.FirstFailure
	}
	return s
}
