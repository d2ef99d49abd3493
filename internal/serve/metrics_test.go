package serve

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"bgpchurn/internal/core"
	"bgpchurn/internal/scenario"
	"bgpchurn/internal/topology"
)

// TestServeMetrics drives one job to each end state — done, failed,
// cancelled — plus a rejected submission and a drain, and checks the
// serving layer's counters against them.
func TestServeMetrics(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	srv.Scheduler().SetCompute(
		func(sc scenario.Scenario, n int, seed uint64) (*topology.Topology, error) {
			return &topology.Topology{Nodes: make([]topology.Node, n), Seed: seed}, nil
		},
		func(ctx context.Context, tp *topology.Topology, cfg core.Config) (*core.Result, error) {
			switch len(tp.Nodes) {
			case 300:
				return nil, errors.New("bad configuration")
			case 400:
				<-ctx.Done() // held in flight until its job is cancelled
				return nil, ctx.Err()
			}
			return stubResult(len(tp.Nodes), cfg.Origins), nil
		})

	if status, _, _ := submit(t, hs.URL, `{"scenarios":[],"sizes":[100]}`); status != http.StatusBadRequest {
		t.Fatalf("invalid submission: status %d, want 400", status)
	}
	_, done, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[100,200]}`)
	_, failed, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[300]}`)
	_, cancelled, _ := submit(t, hs.URL, `{"scenarios":["BASELINE"],"sizes":[400]}`)
	for _, want := range []struct {
		id    string
		state JobState
	}{{done.ID, JobDone}, {failed.ID, JobFailed}} {
		if got := waitJob(t, hs.URL, want.id).State; got != want.state {
			t.Fatalf("job %s: state %s, want %s", want.id, got, want.state)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, hs.URL, cancelled.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("the job to cancel never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+cancelled.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitJob(t, hs.URL, cancelled.ID).State; got != JobCancelled {
		t.Fatalf("cancelled job: state %s", got)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := &srv.Metrics().Serve
	for _, x := range []struct {
		name      string
		got, want uint64
	}{
		{"rejected", m.JobsRejected.Value(), 1},
		{"admitted", m.JobsAdmitted.Value(), 3},
		{"completed", m.JobsCompleted.Value(), 1},
		{"failed", m.JobsFailed.Value(), 1},
		{"cancelled", m.JobsCancelled.Value(), 1},
		{"cells dispatched", m.CellsDispatched.Value(), 4},
		{"drains", m.DrainSeconds.Snapshot().Count, 1},
	} {
		if x.got != x.want {
			t.Errorf("%s: hub %d, want %d", x.name, x.got, x.want)
		}
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth %d after every job finished, want 0", got)
	}
}
