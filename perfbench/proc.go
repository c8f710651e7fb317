package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// sample is one palsweep process: its outputs and what it cost.
type sample struct {
	Wall   float64 // seconds, start to exit
	CPU    float64 // seconds, user + system of the child
	RSSMB  float64 // peak resident set of the child
	Stdout string
	Stderr string
	Err    error // launch failure or non-zero exit
}

// runPalsweep runs the compiled palsweep in dir with args and waits for
// it. The child inherits nothing but the environment.
func runPalsweep(bin, dir string, args ...string) sample {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	s := sample{Wall: time.Since(t0).Seconds(), Stdout: stdout.String(), Stderr: stderr.String()}
	if err != nil {
		s.Err = fmt.Errorf("palsweep %v: %w: %s", args, err, lastLine(s.Stderr))
	}
	if cmd.ProcessState == nil {
		return s
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.CPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.RSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// lastLine returns the last non-empty line of s, after any progress
// carriage returns.
func lastLine(s string) string {
	lines := bytes.Split(bytes.TrimSpace([]byte(s)), []byte("\n"))
	last := lines[len(lines)-1]
	if i := bytes.LastIndexByte(last, '\r'); i >= 0 {
		last = last[i+1:]
	}
	return string(last)
}

// copyTree copies the regular files under src into dst, which must not
// exist yet.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		return copyFile(path, target, info.Mode())
	})
}

func copyFile(src, dst string, mode os.FileMode) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
