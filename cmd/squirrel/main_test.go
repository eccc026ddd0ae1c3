package main

import (
	"os"
	"strings"
	"testing"
)

// captureStdout redirects os.Stdout around fn.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errc := make(chan error, 1)
	outc := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		outc <- string(buf)
	}()
	go func() { errc <- fn() }()
	ferr := <-errc
	w.Close()
	os.Stdout = old
	out := <-outc
	r.Close()
	return out, ferr
}

func TestCmdDemo(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdDemo(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"annotated VDP", "VDP-rulebase", "consistency check (Theorem 7.1): OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

func TestCmdFigure2(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdFigure2(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pseudo-consistent: true   consistent: false") {
		t.Errorf("figure2 verdicts missing:\n%s", out)
	}
}

func TestCmdQueryViewValidation(t *testing.T) {
	if err := cmdQueryView([]string{"-export", ""}); err == nil {
		t.Errorf("missing export must fail")
	}
	if err := cmdQueryView([]string{"-export", "V", "-addr", "127.0.0.1:1", "-where", "a ="}); err == nil {
		t.Errorf("bad where must fail before dialing... or dial fails; either way an error")
	}
}

func TestCmdServeMediatorValidation(t *testing.T) {
	if err := cmdServeMediator(nil); err == nil {
		t.Errorf("missing sources/views must fail")
	}
	if err := cmdServeMediator([]string{"-source", "127.0.0.1:1", "-view", "badformat"}); err == nil {
		t.Errorf("dial failure or bad view must fail")
	}
}
