package splitrt

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"shredder/internal/core"
	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// rig builds a tiny trained LeNet split, a server for it, and the test
// data; callers get the bound address and a cleanup-registered server.
func rig(t *testing.T) (*core.Split, *model.Pretrained, string, string) {
	t.Helper()
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 300, TestN: 80, Epochs: 2, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	cutLayer, err := pre.Spec.CutLayer(pre.Spec.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.NewSplit(pre.Net, cutLayer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, cutLayer)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return split, pre, cutLayer, addr
}

func TestRemoteInferenceMatchesLocalBaseline(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	client, err := Dial(addr, split, cutLayer, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	b := pre.Test.Batches(8)[0]
	remote, err := client.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	local := split.Forward(b.Images)
	if !tensor.AllClose(remote, local, 1e-9) {
		t.Fatal("remote logits differ from local full forward")
	}
}

func TestClassifyWithNoiseCollection(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	col := core.Collect(split, pre.Train, core.NoiseConfig{
		Scale: 1.5, Lambda: 0.01, PrivacyTarget: 3, Epochs: 1, Seed: 300,
	}, 3, 1)
	client, err := Dial(addr, split, cutLayer, col, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	correct, n := 0, 0
	for _, b := range pre.Test.Batches(16) {
		preds, err := client.Classify(b.Images)
		if err != nil {
			t.Fatal(err)
		}
		for i, y := range b.Labels {
			if preds[i] == y {
				correct++
			}
			n++
		}
	}
	acc := float64(correct) / float64(n)
	if acc < 0.3 {
		t.Fatalf("noisy remote accuracy %.2f collapsed (baseline %.2f)", acc, pre.TestAccuracy())
	}
}

func TestHandshakeRejectsMismatchedCut(t *testing.T) {
	split, _, _, addr := rig(t)
	if _, err := Dial(addr, split, "pool0", nil, 3); err == nil {
		t.Fatal("handshake should reject a mismatched cut layer")
	} else if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestServerRejectsBadActivationShape(t *testing.T) {
	split, _, cutLayer, addr := rig(t)
	client, err := Dial(addr, split, cutLayer, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Bypass Infer and send a malformed activation directly.
	peer := &testPeer{client.conn}
	if err := peer.write(&request{ID: 99, Activation: tensor.New(1, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	resp, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("server accepted a bad activation shape")
	}
	// Connection must survive the error: a valid request still works.
	good := tensor.New(append([]int{1}, split.ActivationShape()...)...)
	if err := peer.write(&request{ID: 100, Activation: good}); err != nil {
		t.Fatal(err)
	}
	resp2, err := peer.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Err != "" || resp2.Logits == nil {
		t.Fatalf("server did not recover after bad request: %+v", resp2)
	}
}

func TestServerHandlesGarbageHandshake(t *testing.T) {
	split, _, cutLayer, addr := rig(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send something that is not a frame: the server must hang up on it at
	// once (these four bytes read as a length far past any hello), must not
	// crash, and new clients must still connect.
	if _, err := conn.Write([]byte("nonsense")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// (EOF, or a reset because the server closed with our bytes unread.)
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server did not hang up on bytes that are not a frame: read %d bytes, %v", n, err)
	}
	client, err := Dial(addr, split, cutLayer, nil, 5)
	if err != nil {
		t.Fatalf("server unusable after a garbage handshake: %v", err)
	}
	client.Close()
}

func TestMultipleConcurrentClients(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	b := pre.Test.Batches(4)[0]
	want := split.Forward(b.Images)
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			client, err := Dial(addr, split, cutLayer, nil, seed)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 5; i++ {
				got, err := client.Infer(b.Images)
				if err != nil {
					errs <- err
					return
				}
				if !tensor.AllClose(got, want, 1e-9) {
					errs <- errMismatch
					return
				}
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "remote logits mismatch under concurrency" }

func TestCloseStopsServer(t *testing.T) {
	pre, err := model.Train(model.LeNet(), model.TrainConfig{TrainN: 100, TestN: 20, Epochs: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	cutLayer, _ := pre.Spec.CutLayer("conv2")
	split, err := core.NewSplit(pre.Net, cutLayer, pre.Spec.Dataset.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer(split, cutLayer)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close must be idempotent, second call returned %v", err)
	}
	if _, err := Dial(addr, split, cutLayer, nil, 5); err == nil {
		t.Fatal("Dial should fail after server Close")
	}
}

func TestQuantizedTransportAccuracyAndVolume(t *testing.T) {
	split, pre, cutLayer, addr := rig(t)
	denseClient, err := Dial(addr, split, cutLayer, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer denseClient.Close()
	quantClient, err := Dial(addr, split, cutLayer, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer quantClient.Close()
	if err := quantClient.SetWireQuantization(8); err != nil {
		t.Fatal(err)
	}

	b := pre.Test.Batches(16)[0]
	dense, err := denseClient.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := quantClient.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions should agree almost everywhere despite 8-bit transport.
	agree := 0
	for i := range b.Labels {
		if dense.Slice(i).Argmax() == quant.Slice(i).Argmax() {
			agree++
		}
	}
	if agree < len(b.Labels)-2 {
		t.Fatalf("quantized transport changed %d/%d predictions", len(b.Labels)-agree, len(b.Labels))
	}
	// And move far fewer bytes: dense float64 is 8B/value, bit-packed 8-bit
	// levels are 1B/value — demand at least 3x reduction (fixed protocol
	// overhead dilutes the per-value win at this small activation volume).
	ds, qs := denseClient.Stats(), quantClient.Stats()
	if ds.BytesSent < qs.BytesSent*3 {
		t.Fatalf("quantized transport not smaller: dense %d bytes, quant %d bytes", ds.BytesSent, qs.BytesSent)
	}
	if ds.Requests != 1 || qs.Requests != 1 {
		t.Fatalf("request counters wrong: %d / %d", ds.Requests, qs.Requests)
	}
}

// TestCompiledServingDecisionParity pins what each serving dtype returns
// over the wire: the default (float64-plan) server reproduces the Split's
// in-process forward pass bit for bit, and a Float32 server yields
// identical classification decisions — over dense transport and over the
// quantized fast path that dequantizes straight into float32.
func TestCompiledServingDecisionParity(t *testing.T) {
	split, pre, cutLayer, addr64 := rig(t)

	srv32 := NewCloudServer(split, cutLayer, WithDtype(nn.Float32))
	addr32, err := srv32.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv32.Close() })

	dial := func(a string, seed int64) *EdgeClient {
		t.Helper()
		c, err := Dial(a, split, cutLayer, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c64 := dial(addr64, 21)
	c32 := dial(addr32, 22)

	b := pre.Test.Batches(16)[0]
	want := split.Forward(b.Images)
	got64, err := c64.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(want, got64) {
		t.Fatal("float64 server logits differ from the in-process forward pass")
	}
	got32, err := c32.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Labels {
		if want.Slice(i).Argmax() != got32.Slice(i).Argmax() {
			t.Fatalf("sample %d: float32-compiled decision differs over dense transport", i)
		}
	}

	// Quantized transport: the float32 server takes the direct-dequant fast
	// path (no float64 activation materialized); decisions must still match
	// the float64 server fed the very same wire payload.
	q64 := dial(addr64, 23)
	q32 := dial(addr32, 24)
	for _, c := range []*EdgeClient{q64, q32} {
		if err := c.SetWireQuantization(8); err != nil {
			t.Fatal(err)
		}
	}
	wantQ, err := q64.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	gotQ, err := q32.Infer(b.Images)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Labels {
		if wantQ.Slice(i).Argmax() != gotQ.Slice(i).Argmax() {
			t.Fatalf("sample %d: float32 decision differs over quantized fast path", i)
		}
	}
}

func TestSetWireQuantizationValidation(t *testing.T) {
	split, _, cutLayer, addr := rig(t)
	client, err := Dial(addr, split, cutLayer, nil, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetWireQuantization(17); err == nil {
		t.Fatal("17-bit quantization should be rejected")
	}
	if err := client.SetWireQuantization(-2); err == nil {
		t.Fatal("negative bit width should be rejected")
	}
	if err := client.SetWireQuantization(1); err != nil {
		t.Fatalf("1-bit quantization is the extreme of the legal range: %v", err)
	}
	if err := client.SetWireQuantization(0); err != nil {
		t.Fatal("disabling quantization should succeed")
	}
}
