package session

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/gram"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/registry"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/storage"
)

// newService builds a session service whose engines are in-process
// engine.Engine values started by a GRAM launcher, as on a LocalGrid.
func newService(t *testing.T, lifetime time.Duration) *Service {
	t.Helper()
	cluster, err := scheduler.New(
		[]scheduler.NodeConfig{{Name: "node00", Slots: 1}, {Name: "node01", Slots: 1}},
		[]scheduler.QueueConfig{{Name: "interactive", Priority: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	jm := gram.NewJobManager(cluster)
	reg := registry.New()
	mgr := merge.NewManager()
	jm.RegisterLauncher(EngineExecutable, func(ctx context.Context, node string, index int, jd gram.JobDescription) error {
		sessionID := jd.Environment["IPA_SESSION"]
		workerID := fmt.Sprintf("engine-%02d", index)
		eng := engine.New(engine.Config{SessionID: sessionID, WorkerID: workerID, Publisher: mgr})
		if err := reg.Register(registry.Worker{SessionID: sessionID, WorkerID: workerID, Node: node, Handle: eng}); err != nil {
			return err
		}
		go func() {
			<-ctx.Done()
			eng.Shutdown()
		}()
		eng.Serve()
		return nil
	})
	shared, err := storage.New("shared", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Gram: jm, Registry: reg, Locator: locator.New("local"), Catalog: catalog.New(),
		Merge: mgr, Loader: codeloader.New(), SharedDisk: shared,
		Engines: 2, Queue: "interactive", SessionLifetime: lifetime,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestActivityRenewsLifetime: session activity pushes the termination
// time forward, so the sweeper reaps only sessions idle for a lifetime.
func TestActivityRenewsLifetime(t *testing.T) {
	const lifetime = 300 * time.Millisecond
	s := newService(t, lifetime)
	sess, err := s.Create("/CN=alice")
	if err != nil {
		t.Fatal(err)
	}
	// Stay active for three lifetimes.
	for end := time.Now().Add(3 * lifetime); time.Now().Before(end); {
		if _, err := s.Status(sess.ID); err != nil {
			t.Fatal(err)
		}
		if n := s.Sweep(); n != 0 {
			t.Fatalf("sweeper reaped %d active sessions", n)
		}
		time.Sleep(lifetime / 6)
	}
	// Then go idle past the lifetime.
	time.Sleep(lifetime + 100*time.Millisecond)
	if n := s.Sweep(); n != 1 {
		t.Fatalf("sweeper reaped %d idle sessions, want 1", n)
	}
	if len(s.Sessions()) != 0 || s.Resources() != 0 {
		t.Fatalf("idle session survived the sweep: %v", s.Sessions())
	}
}
