package zskyline_test

// End-to-end tests for the command-line tools: build each binary into
// a temp dir and drive the documented workflows, including the
// skygen -> skyline round trip, skyquery preferences, and a real
// two-process distributed run over TCP.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// buildCmds compiles the listed commands once per test run.
func buildCmds(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("e2e builds are not short")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	return bins
}

func run(t *testing.T, bin string, stdin []byte, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCLIGenerateAndQueryRoundTrip(t *testing.T) {
	bins := buildCmds(t, "skygen", "skyline")
	dir := t.TempDir()
	csv := filepath.Join(dir, "anti.csv")
	zsky := filepath.Join(dir, "anti.zsky")

	run(t, bins["skygen"], nil, "-dist", "anti", "-n", "5000", "-d", "3", "-seed", "7", "-o", csv)
	run(t, bins["skygen"], nil, "-dist", "anti", "-n", "5000", "-d", "3", "-seed", "7", "-format", "binary", "-o", zsky)

	fromCSV, _ := run(t, bins["skyline"], nil, "-in", csv, "-m", "8")
	fromBin, _ := run(t, bins["skyline"], nil, "-in", zsky, "-format", "binary", "-m", "8")
	fromOOC, _ := run(t, bins["skyline"], nil, "-in", zsky, "-format", "binary", "-ooc", "512")

	norm := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if norm(fromCSV) != norm(fromBin) {
		t.Error("CSV and binary inputs give different skylines")
	}
	if norm(fromCSV) != norm(fromOOC) {
		t.Error("out-of-core mode gives a different skyline")
	}
	if len(strings.Split(strings.TrimSpace(fromCSV), "\n")) < 10 {
		t.Errorf("implausibly small skyline:\n%s", fromCSV)
	}
}

func TestCLISkyQuery(t *testing.T) {
	bins := buildCmds(t, "skyquery")
	in := []byte("price,rating\n100,5\n50,3\n90,3\n")
	out, stderr := run(t, bins["skyquery"], in, "-prefer", "price:min,rating:max")
	if !strings.Contains(out, "100,5") || !strings.Contains(out, "50,3") || strings.Contains(out, "90,3") {
		t.Errorf("skyquery output:\n%s", out)
	}
	if !strings.Contains(stderr, "2 of 3") {
		t.Errorf("skyquery summary: %s", stderr)
	}
	// Explain mode.
	out, _ = run(t, bins["skyquery"], in, "-prefer", "price:min,rating:max", "-explain", "2")
	if !strings.Contains(out, "dominated by") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestCLIDistributed(t *testing.T) {
	bins := buildCmds(t, "skygen", "skyline", "skyworker", "skydist")
	dir := t.TempDir()
	csv := filepath.Join(dir, "data.csv")
	run(t, bins["skygen"], nil, "-dist", "independent", "-n", "8000", "-d", "4", "-seed", "3", "-o", csv)

	// Two workers on fixed loopback ports.
	addrs := []string{"127.0.0.1:17771", "127.0.0.1:17772"}
	var workers []*exec.Cmd
	for _, addr := range addrs {
		w := exec.Command(bins["skyworker"], "-listen", addr)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()
	waitForPorts(t, addrs)

	zsky := filepath.Join(dir, "data.zsky")
	run(t, bins["skygen"], nil, "-dist", "independent", "-n", "8000", "-d", "4", "-seed", "3", "-format", "binary", "-o", zsky)

	pool := strings.Join(addrs, ",")
	distOut, distRep := run(t, bins["skydist"], nil, "-workers", pool, "-in", csv, "-m", "8", "-report")
	streamOut, streamRep := run(t, bins["skydist"], nil, "-workers", pool, "-in", zsky, "-format", "binary", "-stream", "-m", "8", "-report")
	localOut, localRep := run(t, bins["skyline"], nil, "-in", csv, "-m", "8", "-report")
	oocOut, oocRep := run(t, bins["skyline"], nil, "-in", zsky, "-format", "binary", "-ooc", "512", "-m", "8", "-report")
	norm := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if norm(distOut) != norm(localOut) || norm(streamOut) != norm(localOut) {
		t.Error("distributed and local skylines differ")
	}
	if norm(oocOut) != norm(localOut) {
		t.Error("skyline -ooc and in-memory skylines differ")
	}
	// Every -report prints the same plan report: the same counts line,
	// in memory and read from a file in passes, and both balance goals.
	counts := func(rep string) string {
		for _, ln := range strings.Split(rep, "\n") {
			if strings.HasPrefix(ln, "points=") {
				return ln
			}
		}
		return ""
	}
	want := counts(localRep)
	if !strings.HasPrefix(want, "points=8000 ") {
		t.Fatalf("skyline -report counts line %q\n%s", want, localRep)
	}
	for name, rep := range map[string]string{"skydist": distRep, "skydist -stream": streamRep, "skyline -ooc": oocRep} {
		if got := counts(rep); got != want {
			t.Errorf("%s -report counts %q, skyline's %q", name, got, want)
		}
		if !strings.Contains(rep, "inputBalance: ") || !strings.Contains(rep, "candidateBalance: ") {
			t.Errorf("%s -report has no balance lines:\n%s", name, rep)
		}
	}
}

// TestCLIWriteErrorExits: a skyline that cannot reach stdout fails the
// run, in memory and out of core.
func TestCLIWriteErrorExits(t *testing.T) {
	bins := buildCmds(t, "skygen", "skyline")
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	zsky := filepath.Join(t.TempDir(), "anti.zsky")
	run(t, bins["skygen"], nil, "-dist", "anti", "-n", "5000", "-d", "3", "-seed", "7", "-format", "binary", "-o", zsky)
	for _, args := range [][]string{
		{"-in", zsky, "-format", "binary", "-report"},
		{"-in", zsky, "-format", "binary", "-ooc", "512"},
	} {
		cmd := exec.Command(bins["skyline"], args...)
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("skyline %v > /dev/full exited 0; stderr: %s", args, stderr.String())
		}
	}
}

func waitForPorts(t *testing.T, addrs []string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range addrs {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("worker on %s never came up", addr)
			}
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
}

func TestCLISkybenchSingleFigure(t *testing.T) {
	bins := buildCmds(t, "skybench")
	out, _ := run(t, bins["skybench"], nil, "-run", "fig3", "-scale", "0.2")
	if !strings.Contains(out, "fig3") || !strings.Contains(out, "NBA-like") {
		t.Errorf("skybench output:\n%s", out)
	}
	// CSV mode.
	out, _ = run(t, bins["skybench"], nil, "-run", "fig3", "-scale", "0.2", "-csv")
	if !strings.Contains(out, "partition,") {
		t.Errorf("skybench csv output:\n%s", out)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

func TestCLISkyServe(t *testing.T) {
	bins := buildCmds(t, "skyserve")
	dir := t.TempDir()
	csv := filepath.Join(dir, "hotels.csv")
	if err := os.WriteFile(csv, []byte("price,rating\n100,5\n50,3\n90,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two 4096-row preload chunks and one more row: an anti-chain, so
	// every row is also on the skyline.
	const bigRows = 2*4096 + 1
	var big strings.Builder
	big.WriteString("x,y\n")
	for i := 0; i < bigRows; i++ {
		fmt.Fprintf(&big, "%d,%d\n", i, bigRows-i)
	}
	bigCSV := filepath.Join(dir, "big.csv")
	if err := os.WriteFile(bigCSV, []byte(big.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := "127.0.0.1:18432"
	srv := exec.Command(bins["skyserve"], "-in", csv, "-dataset", "big="+bigCSV, "-listen", addr)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitForPorts(t, []string{addr})

	resp, err := httpGet("http://" + addr + "/skyline")
	if err != nil {
		t.Fatal(err)
	}
	// The raw /skyline endpoint is all-min: (50,3) dominates both
	// other hotels under smaller-is-better semantics.
	if !strings.Contains(resp, `"count":1`) {
		t.Errorf("skyline response: %s", resp)
	}
	resp, err = httpPost("http://"+addr+"/query",
		`{"prefer":[{"attr":"price","dir":"min"},{"attr":"rating","dir":"max"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"rows":[0,1]`) {
		t.Errorf("query response: %s", resp)
	}

	resp, err = httpGet("http://" + addr + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Datasets []struct {
			Name    string `json:"name"`
			Points  int    `json:"points"`
			Skyline int    `json:"skyline"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(resp), &list); err != nil {
		t.Fatalf("GET /datasets: %v: %s", err, resp)
	}
	found := false
	for _, d := range list.Datasets {
		if d.Name == "big" {
			found = true
			if d.Points != bigRows || d.Skyline != bigRows {
				t.Errorf("big dataset serves %d points, skyline %d; want %d of each", d.Points, d.Skyline, bigRows)
			}
		}
	}
	if !found {
		t.Errorf("GET /datasets lacks the big dataset: %s", resp)
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), nil
}

func httpPost(url, body string) (string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), nil
}
