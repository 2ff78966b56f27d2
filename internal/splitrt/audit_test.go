package splitrt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// auditRig serves one identity backend with a file-backed audit ledger and
// a debug endpoint, returning the split, server, serving address, and the
// ledger path for post-mortem reopening.
func auditRig(t *testing.T, maxBatch int, maxDelay time.Duration) (*core.Split, *CloudServer, string, string) {
	t.Helper()
	split, _, _ := fleetRig(t, 0) // only want the shared split topology
	path := filepath.Join(t.TempDir(), "audit.ledger")
	fl, err := audit.OpenFileLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	fl.NoSync = true // no durability claims under test; keep CI fast
	aud := audit.New(audit.Options{MaxBatch: maxBatch, MaxDelay: maxDelay, Ledger: fl})
	srv := NewCloudServer(split, "cut", WithAudit(aud), WithDebugServer("127.0.0.1:0"))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return split, srv, addr, path
}

// auditNoise is a one-member stored collection: enough for the client to
// attach a real attribution note (mode, member, in-vivo 1/SNR).
func auditNoise() *core.Collection {
	noise := tensor.New(1, 2, 2)
	for i := range noise.Data() {
		noise.Data()[i] = 0.5 * float64(i) // non-constant: nonzero variance
	}
	return &core.Collection{Shape: []int{1, 2, 2}, Members: []*tensor.Tensor{noise}, InVivo: []float64{0.25}}
}

// waitAnchored polls the audit endpoint until the batch the proof sits in
// has been anchored (anchoring is asynchronous behind sealing, and how many
// batches a run of requests seals into depends on how fast they arrive).
func waitAnchored(t *testing.T, base string, proof *audit.InclusionProof) []audit.AnchoredRoot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		roots, err := audit.FetchRoots(base, nil)
		if err == nil {
			if _, err = proof.VerifyAgainst(roots); !errors.Is(err, audit.ErrRootNotAnchored) {
				return roots
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("proof's batch never anchored (%d roots, last error: %v)", len(roots), err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDigestRequestPinned fixes the activation digest an audit record
// commits to, for a fixed dense activation (long enough to span several of
// DigestFloats' chunks, with a partial last one), a fixed quantized payload
// and an empty request. The values were computed by the implementation that
// materialized the dense bytes; a ledger written then must verify now.
func TestDigestRequestPinned(t *testing.T) {
	act := tensor.New(2, 3, 700)
	for i := range act.Data() {
		act.Data()[i] = float64(i)*0.25 - 17
	}
	quant := &quantPayload{Bits: 8, Lo: -1.5, Hi: 2.25, Shape: []int{1, 2, 2}, Packed: []byte{1, 2, 3, 4}}
	var d audit.Digester
	for _, c := range []struct {
		name string
		req  request
		want string
	}{
		{"dense", request{Activation: act}, "ee57c81f28e1d1efbad50e831f77b17d73f07b6ba0ce6c83c94d9d207c41cc2d"},
		{"quant", request{Quant: quant}, "14d1b4aada0748f6902a443fc76e6f76c06a84b7396e3d8a47b4b7cb0af8a2ad"},
		{"none", request{}, "42f9a16e305ebf69ad8e09681fbe8aaa3f3b5fd0f5497118eeb203e5afc4f657"},
	} {
		// One digest state for all three, as a request state reuses its own.
		if got := fmt.Sprintf("%x", digestRequest(&d, &c.req)); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestServerAuditEndToEnd is the acceptance path: serve requests with a
// file-backed ledger, fetch the inclusion proof for the client's own trace
// from /debug/audit, verify it against the anchored roots, then confirm the
// roots survive a server shutdown and ledger reopen.
func TestServerAuditEndToEnd(t *testing.T) {
	split, srv, addr, path := auditRig(t, 4, 5*time.Millisecond)
	noise := auditNoise()
	mon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 1, 1)
	client, err := Dial(addr, split, "cut", noise, 7, WithPrivacyTelemetry(mon))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const requests = 9
	x, _ := poolInput(3)
	for i := 0; i < requests; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	trace := client.LastTrace()
	if trace == 0 {
		t.Fatal("client minted no trace ID")
	}

	srv.Auditor().Flush()
	base := "http://" + srv.DebugAddr() + "/debug/audit"
	proof, err := audit.FetchProof(base, trace.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	roots := waitAnchored(t, base, proof)
	rec, err := proof.Verify()
	if err != nil {
		t.Fatalf("proof self-verification: %v", err)
	}
	if rec.Trace != uint64(trace) {
		t.Fatalf("proof record trace %016x, want %s", rec.Trace, trace)
	}
	if rec.Model != "obsnet" || rec.Cut != "cut" {
		t.Fatalf("record identifies %s/%s, want obsnet/cut", rec.Model, rec.Cut)
	}
	if rec.Mode != core.ModeStored {
		t.Fatalf("record mode %q, want %q", rec.Mode, core.ModeStored)
	}
	if rec.Member != 0 {
		t.Fatalf("record member %d, want 0 (single-member collection)", rec.Member)
	}
	if !rec.Sampled || rec.InVivo <= 0 {
		t.Fatalf("record carries no in-vivo 1/SNR (sampled=%v invivo=%g)", rec.Sampled, rec.InVivo)
	}
	if _, err := proof.VerifyAgainst(roots); err != nil {
		t.Fatalf("proof does not verify against anchored roots: %v", err)
	}

	// Shutdown drains every pending record, and the anchored chain is
	// durable: reopening the ledger file replays the same roots and the
	// proof still verifies against them.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := audit.OpenFileLedger(path)
	if err != nil {
		t.Fatalf("reopen after clean shutdown: %v", err)
	}
	defer reopened.Close()
	if reopened.Recovered != 0 {
		t.Fatalf("clean shutdown left %d bytes of partial tail", reopened.Recovered)
	}
	persisted := reopened.Roots()
	if len(persisted) < len(roots) {
		t.Fatalf("reopened ledger has %d roots, served %d", len(persisted), len(roots))
	}
	total := 0
	for _, r := range persisted {
		total += r.Count
	}
	if total != requests {
		t.Fatalf("persisted roots cover %d records, want %d", total, requests)
	}
	if _, err := proof.VerifyAgainst(persisted); err != nil {
		t.Fatalf("proof does not verify against reopened ledger: %v", err)
	}
}

// TestNoisedBytesOnTheWirePinned: the client perturbs a single-sample batch
// as it is and a larger one through per-sample views, and either way the
// server's record commits to the bytes the old route put on the wire — one
// draw per sample from the client's seed, each applied to its own slice with
// the tensor package's in-place operations.
func TestNoisedBytesOnTheWirePinned(t *testing.T) {
	split, srv, addr, _ := auditRig(t, 1, time.Millisecond)
	members := make([]*tensor.Tensor, 3)
	for m := range members {
		members[m] = tensor.New(1, 2, 2)
		for i := range members[m].Data() {
			members[m].Data()[i] = 0.5*float64(i) - 0.3*float64(m+1)
		}
	}
	noise := &core.Collection{Shape: []int{1, 2, 2}, Members: members, InVivo: []float64{0.25, 0.5, 0.75}}
	const seed = 29
	for _, n := range []int{1, 3} {
		x := tensor.New(n, 1, 2, 2)
		for i := range x.Data() {
			x.Data()[i] = float64(i%5) - 1.5
		}
		// Two calls: the second runs in the activation tensor of the first.
		const calls = 2
		rng := tensor.NewRNG(seed)
		var want *tensor.Tensor
		member := -2
		for call := 0; call < calls; call++ {
			want = split.Local(x)
			for i := 0; i < n; i++ {
				d := noise.DrawInto(nil, rng)
				want.Slice(i).AddInPlace(d.Noise)
				if n == 1 {
					member = d.Member
				}
			}
		}

		client, err := Dial(addr, split, "cut", noise, seed)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < calls; call++ {
			if _, err := client.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		client.Close()
		srv.Auditor().Flush()
		proof, ok := srv.Auditor().ProofByTrace(uint64(client.LastTrace()))
		if !ok {
			t.Fatalf("batch of %d: no record for the client's trace", n)
		}
		rec, err := proof.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if rec.ActDigest != audit.DigestFloats("dense", want.Shape(), want.Data()) {
			t.Errorf("batch of %d: the server saw other bytes than slice-by-slice noising produces", n)
		}
		if int(rec.Member) != member {
			t.Errorf("batch of %d: record attributes member %d, want %d", n, rec.Member, member)
		}
	}
}

// TestServerAuditLedgerTamperDetected flips one byte of the on-disk ledger
// after shutdown and checks reopening fails with the typed corruption error.
func TestServerAuditLedgerTamperDetected(t *testing.T) {
	split, srv, addr, path := auditRig(t, 2, 2*time.Millisecond)
	client, err := Dial(addr, split, "cut", auditNoise(), 11)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := poolInput(4)
	for i := 0; i < 4; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40 // inside the last entry's root hash
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := audit.OpenFileLedger(path); !errors.Is(err, audit.ErrLedgerCorrupt) {
		t.Fatalf("tampered ledger reopened with err=%v, want ErrLedgerCorrupt", err)
	}
}

// TestGatewayAuditFanOut drives traffic through a gateway fronting audited
// backends and checks the gateway's merged /debug/audit serves a proof for
// the edge's trace that verifies against the fleet's root union — even
// though the edge never learns which backend recorded it.
func TestGatewayAuditFanOut(t *testing.T) {
	seqSplit, _, _ := fleetRig(t, 0)
	backends := make([]*CloudServer, 2)
	addrs := make([]string, 2)
	bases := make([]string, 2)
	for i := range backends {
		aud := audit.New(audit.Options{MaxBatch: 2, MaxDelay: 2 * time.Millisecond})
		srv := NewCloudServer(seqSplit, "cut", WithAudit(aud), WithDebugServer("127.0.0.1:0"))
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		backends[i], addrs[i] = srv, addr
		bases[i] = "http://" + srv.DebugAddr()
	}

	pool, err := NewPool(seqSplit, "cut", nil, 13, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	gw := NewGateway(pool,
		WithDebugServer("127.0.0.1:0"),
		WithBackends(bases...))
	gwAddr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	client, err := Dial(gwAddr, seqSplit, "cut", auditNoise(), 17)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x, _ := poolInput(6)
	for i := 0; i < 6; i++ {
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	trace := client.LastTrace()
	for _, b := range backends {
		b.Auditor().Flush()
	}

	base := "http://" + gw.DebugAddr() + "/debug/audit"
	proof, err := audit.FetchProof(base, trace.String(), nil)
	if err != nil {
		t.Fatalf("gateway could not serve proof for edge trace: %v", err)
	}
	roots := waitAnchored(t, base, proof)
	rec, err := proof.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace != uint64(trace) {
		t.Fatalf("backend recorded trace %016x, want the edge's %s", rec.Trace, trace)
	}
	if rec.Mode != core.ModeStored {
		t.Fatalf("audit note lost in relay: mode %q", rec.Mode)
	}
	if _, err := proof.VerifyAgainst(roots); err != nil {
		t.Fatalf("proof does not verify against fleet root union: %v", err)
	}
	// The union names each root's backend as the metrics and events merges
	// do: by its pool address.
	var rows []audit.RootJSON
	if err := obs.GetJSON(nil, base+"?view=roots", &rows); err != nil || len(rows) == 0 {
		t.Fatalf("root union: %d rows, %v", len(rows), err)
	}
	for _, r := range rows {
		if r.Backend != "backend."+addrs[0] && r.Backend != "backend."+addrs[1] {
			t.Fatalf("root %d labelled %q, want backend.<pool address> of %v", r.Seq, r.Backend, addrs)
		}
	}
}
