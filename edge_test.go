package shredder

import (
	"path/filepath"
	"sync"
	"testing"

	"shredder/internal/obs"
)

// TestGalleryAttackFacesDeployedSource: the identification attack draws from
// the source that is deployed, in every mode, in the process that learned it
// and in one that loaded it. (It used to attack the trained collection beside
// the source: nothing at all after loading a fitted file — printed as the
// shredded result, the clean 100 % — the trained members instead of their
// fit, and never a multiplicative collection's weights.)
func TestGalleryAttackFacesDeployedSource(t *testing.T) {
	cache := t.TempDir() // one pre-training for the six systems
	system := func(mode string) *System {
		sys, err := NewSystem("lenet", Config{Cut: "conv0", Seed: 3, TrainN: 300, TestN: 60, Epochs: 2,
			NoiseMode: mode, WeightCacheDir: cache})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, mode := range []string{"stored", "fitted", "fitted-mul"} {
		sys := system(mode)
		sys.LearnNoiseWith(3, NoiseOptions{Scale: 60, Epochs: 1})
		learned, err := sys.GalleryAttack(60)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "noise.bin")
		if err := sys.SaveNoise(path); err != nil {
			t.Fatal(err)
		}
		other := system("stored") // a file deploys in its own mode
		if err := other.LoadNoise(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := other.GalleryAttack(60)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: clean top-1 %.0f%%, shredded top-1 %.0f%% in process, %.0f%% after save and load",
			mode, 100*learned.CleanTop1, 100*learned.NoisyTop1, 100*loaded.NoisyTop1)
		if learned.CleanTop1 != 1 || loaded.CleanTop1 != 1 {
			t.Errorf("%s: clean identification %v and %v, want perfect", mode, learned.CleanTop1, loaded.CleanTop1)
		}
		if loaded.NoisyTop1 != learned.NoisyTop1 {
			t.Errorf("%s: shredded top-1 %v after the load, %v in the process that learned the noise",
				mode, loaded.NoisyTop1, learned.NoisyTop1)
		}
		if loaded.NoisyTop1 == 1 || learned.NoisyTop1 == 1 {
			t.Errorf("%s: the attack on the noised activations is as good as on the clean ones", mode)
		}
		if mode != "stored" && (loaded.NoisyTop1 >= 0.5 || learned.NoisyTop1 >= 0.5) {
			t.Errorf("%s at scale 60: shredded top-1 %v / %v, want below 50%%", mode, learned.NoisyTop1, loaded.NoisyTop1)
		}
	}
}

// TestEdgeStepSharedMonitor: after EnablePrivacyTelemetry, Classify, a
// ConnectEdge client and a ConnectPool handle off one System feed its one
// monitor, each by one query per call — from one goroutine and, for the race
// detector, from several at once. (The pool used to feed none.)
func TestEdgeStepSharedMonitor(t *testing.T) {
	sys, err := NewSystem("lenet", Config{Seed: 3, TrainN: 200, TestN: 40, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.LearnNoiseWith(2, NoiseOptions{Epochs: 0.5})
	if err := sys.EnablePrivacyTelemetry(obs.NewRegistry(), 1); err != nil {
		t.Fatal(err)
	}
	cloud, err := sys.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := sys.ConnectEdge(cloud.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	pool, err := sys.ConnectPool([]string{cloud.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	roles := []struct {
		name     string
		classify func([]float64) (int, error)
	}{{"Classify", sys.Classify}, {"ConnectEdge", edge.Classify}, {"ConnectPool", pool.Classify}}
	mon := sys.PrivacyMonitor()
	px, _ := sys.TestSample(0)
	for _, r := range roles {
		before := mon.Queries()
		if _, err := r.classify(px); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := mon.Queries() - before; got != 1 {
			t.Errorf("%s moved the system's monitor by %d queries, want 1", r.name, got)
		}
	}

	const workers, calls = 2, 8
	before := mon.Queries()
	var wg sync.WaitGroup
	for _, r := range roles {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				px, _ := sys.TestSample(w)
				for c := 0; c < calls; c++ {
					if _, err := r.classify(px); err != nil {
						t.Errorf("%s: %v", r.name, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if got, want := mon.Queries()-before, int64(len(roles)*workers*calls); got != want {
		t.Errorf("concurrent roles moved the monitor by %d queries, want %d", got, want)
	}
}
