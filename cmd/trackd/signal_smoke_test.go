package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSigtermRightAfterReady stops trackd the moment /readyz first answers
// 200, as a supervisor that restarts a daemon as soon as it is up would.
// The daemon must already handle SIGTERM by then: every round must log
// "shutting down" and exit 0, never die of the signal's default action.
func TestSigtermRightAfterReady(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test")
	}
	bin := filepath.Join(t.TempDir(), "trackd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building trackd: %v", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for round := 0; round < 25; round++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting trackd: %v", err)
		}
		var addr string
		lines := bufio.NewScanner(stdout)
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "trackd: listening on "); ok {
				addr = rest
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("round %d: never saw the listening line; stderr:\n%s", round, stderr.Bytes())
		}
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, stdout)
			close(drained)
		}()

		for deadline := time.Now().Add(10 * time.Second); ; {
			resp, err := client.Get("http://" + addr + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				<-drained
				cmd.Wait()
				t.Fatalf("round %d: /readyz not 200 within 10s (last err %v)", round, err)
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("round %d: SIGTERM: %v", round, err)
		}
		select {
		case <-drained:
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-drained
			cmd.Wait()
			t.Fatalf("round %d: trackd ignored SIGTERM for 20s", round)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: trackd exit after SIGTERM: %v; stderr:\n%s", round, err, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), "shutting down") {
			t.Fatalf("round %d: no \"shutting down\" line; stderr:\n%s", round, stderr.Bytes())
		}
	}
}
