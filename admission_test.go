package icilk_test

import (
	"context"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"icilk"
)

// TestSubmitWithDeadline covers the public deadline API: an
// over-deadline request unwinds and reports DeadlineExceeded; a
// within-deadline request completes normally.
func TestSubmitWithDeadline(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	f := rt.SubmitWithDeadline(0, 10*time.Millisecond, func(task *icilk.Task) any {
		for {
			task.Yield()
		}
	})
	f.Wait()
	if err := f.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}

	g := rt.SubmitWithDeadline(0, time.Minute, func(task *icilk.Task) any { return 7 })
	if v := g.Wait(); v != 7 {
		t.Fatalf("value = %v", v)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func TestSubmitCtx(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	f := rt.SubmitCtx(ctx, 0, func(task *icilk.Task) any {
		close(started)
		for {
			task.Yield()
		}
	})
	<-started
	cancel()
	f.Wait()
	if err := f.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want Canceled", err)
	}
}

// TestAdmissionConfigWiring: Config.Admission builds a controller,
// its Submit admits and sheds, and its counters land in the runtime's
// metric registry.
func TestAdmissionConfigWiring(t *testing.T) {
	rt, err := icilk.New(icilk.Config{
		Workers: 2,
		Levels:  2,
		Admission: &icilk.AdmissionConfig{
			QueueCap: 1,
			Timeout:  time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	adm := rt.Admission()
	if adm == nil {
		t.Fatal("Admission() = nil despite Config.Admission")
	}

	block := make(chan struct{})
	f, err := adm.Submit(0, func(task *icilk.Task) any {
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adm.Submit(0, func(task *icilk.Task) any { return nil }); !errors.Is(err, icilk.ErrShed) {
		t.Fatalf("over-capacity Submit err = %v, want ErrShed", err)
	}
	close(block)
	f.Wait()

	exp := rt.Metrics().String()
	for _, want := range []string{"icilk_admission_shed_total", "icilk_admission_queue_depth"} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestCloseShutsDownAdminServers: Runtime.Close gracefully stops
// servers created by ServeAdmin, and /readyz flips to 503 on a
// still-running server once the runtime reports closed.
func TestCloseShutsDownAdminServers(t *testing.T) {
	rt, err := icilk.New(icilk.Config{Workers: 1, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	res, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before Close = %d, want 200", res.StatusCode)
	}

	rt.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("admin server still serving after Runtime.Close")
	}
}

// TestReadyzDegradedUnderSustainedShed: a runtime whose admission
// controller is shedding every arrival reports degraded readiness.
func TestReadyzDegradedUnderSustainedShed(t *testing.T) {
	rt, err := icilk.New(icilk.Config{
		Workers: 1,
		Levels:  1,
		Admission: &icilk.AdmissionConfig{
			QueueCap: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := rt.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single slot, then shed past the degraded threshold of
	// 100 consecutive sheds.
	tk, err := rt.Admission().Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := rt.Admission().Acquire(0); !errors.Is(err, icilk.ErrShed) {
			t.Fatalf("expected shed, got %v", err)
		}
	}

	res, err := http.Get("http://" + srv.Addr() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz under sustained shed = %d, want 503", res.StatusCode)
	}
	rt.Admission().Release(tk, false)
}

// TestReadmeQuotesAdmissionExample: README's overload snippet is the
// body of ExampleAdmissionController_Submit, so the snippet
// compiles and runs with the example instead of drifting from the API.
func TestReadmeQuotesAdmissionExample(t *testing.T) {
	src, err1 := os.ReadFile("example_test.go")
	readme, err2 := os.ReadFile("README.md")
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(src), "func ExampleAdmissionController_Submit() {\n\t")
	body, _, _ = strings.Cut(body, "\n}\n")
	if body == "" || !strings.Contains(string(readme), "```go\n"+strings.ReplaceAll(body, "\n\t", "\n")+"\n```") {
		t.Fatal("README.md does not quote ExampleAdmissionController_Submit verbatim")
	}
}
